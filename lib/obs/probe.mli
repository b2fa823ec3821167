(** Simulator instrumentation: observed runs and metric reconciliation.

    {!run_traced} is the observability doorway to
    {!Sw_sim.Engine.run_traced}: same arguments, same results, but the
    per-CPE activity spans and the run's DRAM/bandwidth accounting also
    land in a {!Sink.t}, ready for {!Chrome.write}.  Counters are
    designed to be {e reconcilable}: each one restates a
    {!Sw_sim.Metrics.t} field, and {!reconcile} checks that the span
    stream and the metrics agree — the property the golden and qcheck
    batteries lock down. *)

val run_traced :
  Sink.t ->
  name:string ->
  Sw_sim.Config.t ->
  Sw_isa.Flat.t array ->
  Sw_sim.Metrics.t * Sw_sim.Trace.t
(** Run, record machine spans (label [name]), DMA-request async
    lifetimes (category ["dma_req"], issue→completion on the issuing
    CPE's track) and counters.  Counters written, all prefixed ["sim."]
    (simulated, deterministic) except the volatile
    ["host.sim_wall_us"]:

    - ["sim.runs"] — observed executions accumulated in this sink;
    - ["sim.cycles"] — summed makespans;
    - ["sim.transactions"], ["sim.payload_bytes"], ["sim.dma_requests"],
      ["sim.gload_requests"] — DRAM accounting, exactly
      {!Sw_sim.Metrics.t}'s fields;
    - ["sim.mc_busy_cycles"] — summed controller busy time (bandwidth);
    - ["sim.comp_cycles_sum"] — summed per-CPE compute time;
    - ["host.sim_wall_us"] — host wall-clock spent simulating. *)

val record_run :
  Sink.t ->
  name:string ->
  ?dma:Sw_sim.Trace.dma_req list ->
  ?dma_retries:Sw_sim.Trace.dma_retry list ->
  Sw_sim.Metrics.t ->
  Sw_sim.Trace.t ->
  unit
(** Record an already-performed traced run (spans + counters, without
    the host timing) — for callers that hold a [(metrics, trace)]
    pair.  [dma] (default none) adds one async span per request, with a
    ["retries"] arg only on requests that survived injected failures;
    [dma_retries] (default none) adds one ["dma_retry"] async span per
    injected transient failure (failed admission → re-admission).  The
    metrics additionally yield one ["mc_busy"] totals bar per memory
    controller with nonzero busy time, on the ["mc i"] track family,
    and — only when [retries > 0] — the ["sim.dma_retries"] /
    ["sim.backoff_cycles"] counters, so fault-free sinks are
    byte-identical to what they were before fault injection existed. *)

val reconcile : Sw_sim.Metrics.t -> Sw_sim.Trace.t -> (unit, string) result
(** Check that a timeline and its metrics tell the same story, within
    [1e-6] cycles: every span lies inside [[0, cycles]]; per-CPE spans
    of one kind never overlap; the largest per-CPE compute / DMA-stall
    / Gload-stall totals equal [comp_cycles] / [dma_wait_cycles] /
    [gload_cycles]; summed compute equals [comp_cycles_sum].  [Error]
    carries the first discrepancy, for test output. *)
