(** Measurements produced by one simulated execution. *)

type t = {
  cycles : float;  (** Makespan: cycles until the last CPE finished. *)
  per_cpe_finish : float array;
  comp_cycles : float;  (** Largest per-CPE compute-busy time. *)
  dma_wait_cycles : float;
      (** Largest per-CPE time spent blocked in DMA waits (the
          non-overlapped DMA exposure). *)
  gload_cycles : float;  (** Largest per-CPE time blocked on Gload/Gstore. *)
  comp_cycles_sum : float;  (** Sum over CPEs (load-imbalance diagnosis). *)
  transactions : int;  (** DRAM transactions performed. *)
  payload_bytes : int;  (** Useful bytes moved by DMA and Gloads. *)
  dma_requests : int;  (** DMA calls executed. *)
  gload_requests : int;
  mc_busy_cycles : float array;  (** Per-core-group controller busy time. *)
  events : int;  (** Events processed (simulator diagnostics). *)
  last_event_at : float;
      (** Clock of the last event processed.  Events are processed in
          time order, so a budgeted re-run of the same programs under
          the same configuration finishes — with these very metrics —
          exactly when its cutoff is at least this and its event budget
          at least [events]; otherwise it is cut off. *)
  retries : int;
      (** DMA requests re-admitted after an injected transient failure
          ([0] unless {!Config.faults} injects failures). *)
  backoff_cycles : float;
      (** Total exponential-backoff delay charged to retried requests. *)
}

val bandwidth_utilization : t -> float
(** Mean fraction of the makespan the memory controllers were busy. *)

val effective_bandwidth_fraction : t -> trans_size:int -> float
(** Fraction of moved DRAM bytes that were payload. *)

val us : t -> freq_hz:float -> float
(** Makespan in microseconds. *)

val pp : Format.formatter -> t -> unit
