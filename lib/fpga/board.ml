type t = {
  dram_bandwidth_gbps : float;
  dram_latency_ns : float;
  pcie_bandwidth_gbps : float;
  pcie_latency_us : float;
  ring_bandwidth_gbps : float;
  ring_latency_us : float;
}

let default =
  {
    dram_bandwidth_gbps = 19.2;
    dram_latency_ns = 80.0;
    pcie_bandwidth_gbps = 12.0;
    pcie_latency_us = 1.2;
    ring_bandwidth_gbps = 12.5;
    (* ~100 Gbps serial *)
    ring_latency_us = 0.25;
  }

let transfer_time_us ~bandwidth_gbps ~latency_us ~bytes =
  latency_us +. (float_of_int bytes /. (bandwidth_gbps *. 1e9) *. 1e6)

let dram_read_time_us t ~bytes =
  transfer_time_us ~bandwidth_gbps:t.dram_bandwidth_gbps
    ~latency_us:(t.dram_latency_ns /. 1000.0) ~bytes

let ring_transfer_time_us t ~bytes ~hops ~added_latency_us =
  let hops = max 1 hops in
  (float_of_int hops *. (t.ring_latency_us +. added_latency_us))
  +. (float_of_int bytes /. (t.ring_bandwidth_gbps *. 1e9) *. 1e6)

let pcie_transfer_time_us t ~bytes =
  transfer_time_us ~bandwidth_gbps:t.pcie_bandwidth_gbps ~latency_us:t.pcie_latency_us
    ~bytes
