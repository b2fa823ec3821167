(** Search strategies: how a tuner walks its space.

    The paper's pitch is that a precise static model makes auto-tuning
    affordable because a model evaluation is orders of magnitude
    cheaper than a measurement.  This module turns that argument into
    search structure: instead of paying the expensive backend
    (simulator, hybrid) for {e every} point, a strategy ranks the space
    with a cheap backend and decides which points deserve a
    full-fidelity assessment.  The three ranked strategies share one
    verification loop: a shortlist is one rung of the ranked order, the
    adaptive shortlist adds rungs until one fails to improve the
    incumbent, and the robust strategy verifies one rung with the
    cutoff turned off.

    All strategies compose with {!Sw_util.Pool} (deterministic at any
    pool size) and with an observability sink, and none of them ever
    fabricates a cycles number: a point is either {!Priced} by the real
    backend, {!Rejected} at compile time, or {!Pruned} with only its
    sunk cost recorded. *)

type t =
  | Exhaustive
      (** Assess every point with the main backend — the pre-strategy
          behaviour, bit-identical at any pool size. *)
  | Shortlist of { rank : Sw_backend.Backend.t; k : int }
      (** Rank the whole space with the cheap [rank] backend (default
          the static model), then verify only the [k] best-ranked
          points with the main backend, best first, carrying the
          running incumbent's cycles as a strict cutoff so losing
          verifications abandon early.  Returns the same best variant
          as [Exhaustive] whenever the ranker's top-[k] contains the
          true argmin — the paper's model is precise enough that a
          small [k] (a quarter of the space) suffices on every Table II
          kernel. *)
  | Adaptive_shortlist of { rank : Sw_backend.Backend.t; k : int }
      (** Like [Shortlist], but [k] is a rung size, not a budget: the
          ranked order is verified in rungs of [k] points and the
          search stops as soon as a whole rung completes without
          strictly improving the incumbent (seeding the first incumbent
          does not count as an improvement).  A well-ranked space thus
          verifies exactly [k] points, while a misranked one keeps
          paying, one rung at a time, until the ranking proves itself —
          the argmin is recovered without hand-tuning [K] per kernel as
          long as the ranker places the true best ahead of a full quiet
          rung. *)
  | Robust of {
      rank : Sw_backend.Backend.t;
      k : int;
      seeds : int list;
      quantile : float;
      spec : Sw_fault.Fault.spec;
    }
      (** [Shortlist] first — but with the incumbent cutoff disabled,
          so all [k] survivors are fully priced (a point that loses
          nominally can still be the min-of-worst-case winner) — then
          re-assess every survivor under one {!Sw_fault.Fault.plan} per
          seed and score it by the [quantile] of its per-plan cycles
          ([1.0] = worst case), so the downstream argmin picks
          min-of-worst-case — the schedule whose bad days are cheapest
          — instead of the nominal winner.  A plan under which a point
          fails outright scores infinity. *)

val exhaustive : t

val shortlist : ?rank:Sw_backend.Backend.t -> k:int -> unit -> t
(** [rank] defaults to {!Sw_backend.Backend.static_model}. *)

val adaptive_shortlist : ?rank:Sw_backend.Backend.t -> k:int -> unit -> t
(** [rank] defaults to {!Sw_backend.Backend.static_model}.
    @raise Invalid_argument when [k < 1]. *)

val robust :
  ?rank:Sw_backend.Backend.t ->
  k:int ->
  seeds:int list ->
  ?quantile:float ->
  ?spec:Sw_fault.Fault.spec ->
  unit ->
  t
(** [rank] defaults to the static model, [quantile] to [1.0] (worst
    case), [spec] to {!Sw_fault.Fault.default}.
    @raise Invalid_argument on an empty seed list or a quantile outside
    [(0, 1]]. *)

val name : t -> string
(** Human/JSON label: ["exhaustive"], ["shortlist(model,k=6)"],
    ["adaptive(surrogate,k=6)"], ["robust(model,k=6,seeds=8,q=1.00)"]. *)

(** What the search decided about one point. *)
type result_ =
  | Priced of Sw_backend.Backend.verdict  (** Fully assessed by the main backend. *)
  | Rejected of Sw_backend.Backend.infeasibility  (** Compile-time infeasible. *)
  | Pruned of Sw_backend.Backend.cost
      (** Skipped (never assessed, zero cost) or abandoned mid-run by
          the incumbent cutoff (the sunk prefix cost). *)

type link = { publish : float -> unit; current : unit -> float option }
(** A cutoff link lets a search prune against an incumbent held {e
    outside} the process — the sharded tuner's coordinator rebroadcasts
    the best cycles seen by any worker, and each worker folds it (min)
    into its local incumbent before every verification.  [current] is
    polled per verification; [publish] fires whenever the local
    incumbent strictly improves (including its seeding).  The link is
    purely advisory: cutoffs stay strict, so a stale, lossy or absent
    remote value costs extra verifications, never the argmin.  Applied
    by the shortlist and adaptive strategies;
    [Exhaustive] (price everything) and [Robust] (cutoff pruning
    disabled by design) ignore it. *)

type stats = {
  strategy : string;  (** {!name} of the strategy that ran. *)
  rank_host_s : float;  (** Host seconds of the shortlist ranking pass (0 otherwise). *)
  rank_machine_us : float;
      (** Machine time billed by the ranking backend (0 for the static
          model; nonzero if a simulating backend ranks). *)
  machine_us : float;
      (** The search's whole machine bill: completed verdicts, the sunk
          prefixes of cut-off runs, and [rank_machine_us]. *)
}

val run :
  t ->
  backend:Sw_backend.Backend.t ->
  active_cpes:int ->
  ?pool:Sw_util.Pool.t ->
  ?obs:Sw_obs.Sink.t ->
  ?link:link ->
  Sw_sim.Config.t ->
  Sw_swacc.Kernel.t ->
  points:Space.point list ->
  (Space.point * result_) list * stats
(** Run the strategy over [points].  Results come back in enumeration
    order, one per input point, so the caller's argmin (strict [<],
    earliest index wins) sees exactly the exhaustive ordering.

    With [obs], the search bumps ["search.pruned"] (points pruned) and
    ["search.rungs"] (adaptive-shortlist rungs verified); per-assessment
    telemetry comes from wrapping [backend] with
    {!Sw_backend.Backend.instrument} before calling.

    Determinism: for every strategy the result list — and therefore
    the argmin — is identical at any pool size.  [Exhaustive] is
    furthermore bit-identical to the pre-strategy tuner. *)
