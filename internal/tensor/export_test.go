package tensor

// UsePortableKernels makes the dispatch rule answer as it does on a host
// without AVX2, until the returned function is called. It exists for
// the benchmarks of package tensor_test, which print the Go kernels'
// rate beside the dispatched one; nothing may run kernels concurrently
// with the switch.
func UsePortableKernels() (restore func()) {
	was := useAVX2
	useAVX2 = false
	return func() { useAVX2 = was }
}

// LinearKernel names the kernel the dispatch rule gives a Linear of in
// [m,k] and w [n,k] in this process, whose caller brings a panel of
// LinearPanelLen: "sample lanes", "neuron lanes" or "go".
func LinearKernel(m, k, n int) string {
	switch {
	case vectorLinear(m, k, n):
		return "sample lanes"
	case neuronLanes(m, k, n):
		return "neuron lanes"
	}
	return "go"
}
