package main

// Example runs the quickstart end to end and pins its output.
func Example() {
	main()
	// Output:
	// kernel "square": 1282 cycles (9.44e-07 s), IPC 1.60
	// power: 31.50 W total (17.91 static + 13.59 dynamic), DRAM 6.82 W
	// out[0..3] = [0 0.0625 0.25 0.5625] (want [0 0.0625 0.25 0.5625])
}
