package main

// Example runs the design-space sweep end to end and pins its output.
func Example() {
	main()
	// Output:
	// Design space: matrixMul on GT240-derived architectures
	// Variant                      Cycles   Power W   Energy mJ
	// 6 cores                       20206     21.14      0.3144
	// 12 cores                      15556     31.63      0.3622
	// 24 cores                      13260     50.52      0.4931
	// 65 nm process                 15556     32.52      0.3724
	// 40 nm process                 15556     31.63      0.3622
	// 28 nm process                 15556     31.20      0.3572
	// with scoreboard               15052     31.74      0.3517
}
