type t = {
  cycles : float;
  per_cpe_finish : float array;
  comp_cycles : float;
  dma_wait_cycles : float;
  gload_cycles : float;
  comp_cycles_sum : float;
  transactions : int;
  payload_bytes : int;
  dma_requests : int;
  gload_requests : int;
  mc_busy_cycles : float array;
  events : int;
  last_event_at : float;
  retries : int;
  backoff_cycles : float;
}

let bandwidth_utilization t =
  if t.cycles <= 0.0 || Array.length t.mc_busy_cycles = 0 then 0.0
  else Sw_util.Stats.mean (Array.map (fun b -> b /. t.cycles) t.mc_busy_cycles)

let effective_bandwidth_fraction t ~trans_size =
  if t.transactions = 0 then 1.0
  else float_of_int t.payload_bytes /. float_of_int (t.transactions * trans_size)

let us t ~freq_hz = Sw_util.Units.cycles_to_us ~freq_hz t.cycles

let pp fmt t =
  Format.fprintf fmt
    "@[<v>makespan        : %a@,compute (max)   : %a@,dma wait (max)  : %a@,gload (max)     : \
     %a@,transactions    : %d@,dma requests    : %d@,gload requests  : %d@,bw utilization  : \
     %.1f%%@,payload eff.    : %.1f%%@]"
    Sw_util.Units.pp_cycles t.cycles Sw_util.Units.pp_cycles t.comp_cycles Sw_util.Units.pp_cycles
    t.dma_wait_cycles Sw_util.Units.pp_cycles t.gload_cycles t.transactions t.dma_requests
    t.gload_requests
    (bandwidth_utilization t *. 100.0)
    (effective_bandwidth_fraction t ~trans_size:256 *. 100.0);
  if t.retries > 0 then
    Format.fprintf fmt "@,@[<v>dma retries     : %d@,backoff cycles  : %a@]" t.retries
      Sw_util.Units.pp_cycles t.backoff_cycles
