package main

// Example runs the texture-path blur end to end, host-side check included, and pins its output.
func Example() {
	main()
	// Output:
	// 3x3 box blur, 128x128 image, texture path on GT240+tex
	// texture reads: 20736, misses: 4000 (hit rate 80.7%)
	// runtime 1.59e-05 s, power 34.28 W total (16.19 dynamic)
	// verification: OK
}
