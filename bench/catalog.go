package main

// metricDecl names one metric the binary emits and its unit.
// BENCHMARK.json declares the same names and units; bench_test.go
// checks that the two agree.
type metricDecl struct{ name, unit string }

// endToEnd is printed by every untraced run (--trace 0).
var endToEnd = []metricDecl{
	{"pass_s_min", "s"},
	{"alloc_mb_per_pass", "MB"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer is printed by every traced run (--trace 1).
var perLayer = func() []metricDecl {
	ds := []metricDecl{{"traced.pass_s_min", "s"}, {"traced.cpu_s_per_pass", "s"}}
	for _, l := range append(append([]string(nil), shareLayers...), "other", "runtime") {
		ds = append(ds, metricDecl{l + ".cpu_share", "ratio"})
	}
	return append(ds, []metricDecl{
		{"runtime.alloc_share", "ratio"},
		{"core.local_run_ms_p50", "ms"},
		{"core.local_run_ms_p90", "ms"},
		{"core.units_local", "count"},
		{"core.units_store", "count"},
		{"core.worker_busy_frac", "ratio"},
		{"store.get_us_p50", "us"},
		{"store.put_us_p50", "us"},
		{"store.hit_ratio", "ratio"},
		{"store.read_kb_per_pass", "kB"},
		{"store.write_kb_per_pass", "kB"},
		{"media.next_us", "us"},
		{"media.frames", "count"},
		{"codec.encode_us", "us"},
		{"codec.decode_us", "us"},
		{"codec.frames", "count"},
		{"codec.skipped_frames", "count"},
		{"rtp.packetize_us", "us"},
		{"rtp.reassemble_ns", "ns"},
		{"rtp.packets", "count"},
		{"simnet.deliver_ns", "ns"},
		{"simnet.events", "count"},
		{"simnet.drops", "count"},
		{"qoe.compare_ms", "ms"},
		{"qoe.ssim_ms", "ms"},
		{"qoe.vifp_ms", "ms"},
		{"qoe.psnr_ms", "ms"},
		{"qoe.pairs", "count"},
	}...)
}()
