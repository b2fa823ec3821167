(** Executable per-CPE programs: the simulator's flat struct-of-arrays
    form.

    A {!t} is a pre-order item stream held in parallel arrays, with
    every constant the simulator would otherwise recompute per execution
    folded in: per-block compute costs, and for every DMA issue its
    per-controller transaction histogram, stream and tail lengths and
    payload.  The interpreter reads a few scalar array slots per item
    instead of chasing per-item records.

    Two producers build this form through one {!builder}: the lowering
    pass ([Sw_swacc.Lower.lower]) emits it straight from its memoized
    halves, and [Sw_sim.Engine.compile] converts hand-written
    {!Program.t} trees.  Both produce structurally equal values for the
    same program.

    A flat program bakes in a few machine parameters ({!baked}); the
    engine refuses to run it under parameters that differ in any of
    them.  Everything else (latency, bandwidth, NoC penalty, overheads,
    faults, the CPE's home core group) is read at run time, so one
    lowering serves every such configuration. *)

(** {1 Item encoding} *)

val op_compute : int
(** [c_cost] holds the iterated cycles (before any straggler slowdown). *)

val op_dma_issue : int
(** [c_arg] is the dense tag, [c_arg2] the DMA row. *)

val op_dma_wait : int
(** [c_arg] is the dense tag. *)

val op_wait_all : int

val op_gload : int
(** [c_arg] is the address, [c_arg2] the bytes (Gload and Gstore alike). *)

val op_repeat : int
(** [c_arg] is the trip count, [c_arg2] the body's span in items; the
    body immediately follows. *)

(** The machine parameters a flat program depends on: transaction size
    and controller count (DMA histograms), [delta_delay] (stream and
    tail lengths) and the instruction latencies (block costs). *)
type baked = {
  trans_size : int;
  n_cgs : int;
  delta_delay : int;
  l_float : int;
  l_fixed : int;
  l_spm : int;
  l_div_sqrt : int;
}

val baked_of : Sw_arch.Params.t -> baked

val mismatch : baked -> Sw_arch.Params.t -> (string * int * int) option
(** The first baked field whose value differs from the parameters', as
    [(field, baked value, parameter value)]. *)

type t = {
  baked : baked;
  c_op : int array;
  c_arg : int array;
  c_arg2 : int array;
  c_cost : float array;
  r_tag : int array;  (** Per DMA row: dense tag. *)
  r_orig : int array;  (** Per DMA row: the program's own tag (for traces). *)
  r_payload : int array;
  r_stream : float array;  (** [m_total * delta_delay]. *)
  r_tail : float array;  (** [(m_total - 1) * delta_delay]. *)
  r_permc : int array;  (** Transactions per controller, [n_cgs] per row. *)
  k_ntags : int;  (** Dense tags used (issue or wait). *)
  k_depth : int;  (** Maximum loop nesting, counting the program itself. *)
}

val length : t -> int
(** Items in the stream (a loop body counts once). *)

val dma_rows : t -> int
(** DMA issue items in the stream. *)

val payload_bytes : t -> int
(** Payload of the stream's DMA issues (a loop body counts once). *)

(** {1 Building} *)

type builder
(** Arrays sized up front: the producer states the exact item and DMA
    row counts, and {!finish} checks them. *)

val builder : baked -> items:int -> rows:int -> builder

val compute : builder -> float -> unit

val dma_issue : builder -> tag:int -> payload:int -> int array -> int -> unit
(** [dma_issue b ~tag ~payload counts off]: the row's per-controller
    transaction counts are [counts.(off) .. counts.(off + n_cgs - 1)]. *)

val dma_wait : builder -> int -> unit

val wait_all : builder -> unit

val gload : builder -> addr:int -> bytes:int -> unit

val repeat_open : builder -> trips:int -> int
(** Emit a loop header; returns its slot for {!repeat_close}. *)

val repeat_close : builder -> int -> unit
(** Close the loop opened at the slot: everything emitted since is its
    body. *)

val finish : builder -> depth:int -> t
(** @raise Invalid_argument if fewer or more items or rows were emitted
    than the builder was sized for. *)
