(** The preserved enumerating static summary and item-tree lowering.

    This is the reference semantics for {!Lower.summarize}: it builds
    the summary by walking every chunk of every CPE, tallying each
    copied array's request (one transaction count per strided row),
    summing per-element Gload counts one element at a time, and
    generating code blocks afresh, with no memo table.  The factored
    {!Lower.summarize} must return a structurally equal summary (or the
    same [Error]) on every input.  The differential tests and the
    [bench static] section (speed gate, BENCH_static.json) run both;
    nothing else should call {!summarize}.  Kept deliberately
    unoptimized. *)

val summarize :
  Sw_arch.Params.t -> Kernel.t -> Kernel.variant -> (Lowered.summary, string) result

val lower :
  Sw_arch.Params.t -> Kernel.t -> Kernel.variant -> (Sw_isa.Program.t array, string) result
(** The reference lowering: one {!Sw_isa.Program.t} item tree per active
    CPE, built chunk by chunk with fresh code blocks.  [Sw_sim.Engine.compile]
    of its result must be structurally equal to {!Lower.lower}'s
    programs (or both must give the same [Error]).  It is also the
    readable item view: [swmodel asm] renders it and structure tests
    inspect it. *)
