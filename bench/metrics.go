package main

// metricDef names one reported metric. The lists below are the single
// source of metric names, units and directions; BENCHMARK.json repeats
// them and a test keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd is what the gated pass reports on every workload.
var endToEnd = []metricDef{
	{"step_x_floor", "ratio", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_MB", "MB", "lower"},
}

// perLayer is what the traced pass reports on every workload. The layer is
// the part of the name before the first dot and is a module of the
// repository, except go (the runtime), floor (the denominators) and bench
// (raw detail that does not repeat within a tenth on a shared host).
var perLayer = []metricDef{
	{"dad.template_us", "us", "lower"},
	{"dad.reblock_us", "us", "lower"},

	{"schedule.build_us", "us", "lower"},
	{"schedule.remap_us", "us", "lower"},
	{"schedule.cache_get_ns", "ns", "lower"},
	{"schedule.pairs", "count", "lower"},
	{"schedule.elems_per_msg", "count", "higher"},
	{"schedule.pack_us", "us", "lower"},
	{"schedule.unpack_us", "us", "lower"},
	{"schedule.pack_MBps", "MB/s", "higher"},

	{"redist.local_us", "us", "lower"},
	{"redist.exchange_inproc_us", "us", "lower"},
	{"redist.rank_skew_us", "us", "lower"},
	{"redist.peak_packed_bytes", "B", "lower"},
	{"redist.msgs_per_step", "count", "lower"},
	{"redist.bytes_per_step", "B", "lower"},
	{"redist.rounds_per_step", "count", "lower"},
	{"redist.acks_per_step", "count", "lower"},

	{"bufpool.getput_ns", "ns", "lower"},
	{"bufpool.outstanding_peak", "count", "lower"},
	{"bufpool.outstanding_end", "count", "lower"},
	{"bufpool.miss_pct", "%", "lower"},

	{"comm.sendrecv_us", "us", "lower"},
	{"comm.remote_sendrecv_us", "us", "lower"},

	{"wire.encode_us", "us", "lower"},
	{"wire.frame_write_us", "us", "lower"},
	{"wire.frame_read_us", "us", "lower"},
	{"wire.crc_MBps", "MB/s", "higher"},
	{"wire.vectored_pct", "%", "higher"},

	{"transport.tcp_pingpong_us", "us", "lower"},
	{"transport.pipe_pingpong_us", "us", "lower"},

	{"session.pingpong_us", "us", "lower"},
	{"session.over_transport_x", "ratio", "lower"},
	{"session.dial_us", "us", "lower"},
	{"session.frames_per_step", "count", "lower"},
	{"session.acks_per_step", "count", "lower"},
	{"session.replay_depth_peak", "count", "lower"},

	{"prmi.call_independent_us", "us", "lower"},
	{"prmi.call_collective_us", "us", "lower"},
	{"prmi.call_parallel_inproc_us", "us", "lower"},
	{"prmi.msgs_per_call", "count", "lower"},

	{"core.resize_protocol_us", "us", "lower"},

	{"go.allocs_per_step", "count", "lower"},
	{"go.alloc_bytes_per_step", "B", "lower"},
	{"go.gc_cycles", "count", "lower"},

	{"floor.sock_us", "us", "lower"},
	{"floor.mem_us", "us", "lower"},
	{"floor.memcpy_MBps", "MB/s", "higher"},

	{"bench.step_p50_us", "us", "lower"},
	{"bench.step_hi_us", "us", "lower"},
	{"bench.step_hi_pct", "%", "higher"},
	{"bench.samples", "count", "higher"},
	{"bench.cpu_us_per_step", "us", "lower"},
	{"bench.step_par_x_floor", "ratio", "lower"},
	{"bench.socket_share_pct", "%", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
}
