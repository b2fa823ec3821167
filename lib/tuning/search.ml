module Backend = Sw_backend.Backend

type t =
  | Exhaustive
  | Shortlist of { rank : Backend.t; k : int }
  | Adaptive_shortlist of { rank : Backend.t; k : int }
  | Robust of {
      rank : Backend.t;
      k : int;
      seeds : int list;
      quantile : float;
      spec : Sw_fault.Fault.spec;
    }

let exhaustive = Exhaustive

let shortlist ?(rank = Backend.static_model) ~k () = Shortlist { rank; k }

let adaptive_shortlist ?(rank = Backend.static_model) ~k () =
  if k < 1 then invalid_arg "Search.adaptive_shortlist: k must be >= 1";
  Adaptive_shortlist { rank; k }

let robust ?(rank = Backend.static_model) ~k ~seeds ?(quantile = 1.0)
    ?(spec = Sw_fault.Fault.default) () =
  if seeds = [] then invalid_arg "Search.robust: seeds must be non-empty";
  if not (quantile > 0.0 && quantile <= 1.0) then
    invalid_arg "Search.robust: quantile must be in (0, 1]";
  Robust { rank; k; seeds; quantile; spec }

let name = function
  | Exhaustive -> "exhaustive"
  | Shortlist { rank; k } -> Printf.sprintf "shortlist(%s,k=%d)" (Backend.name rank) k
  | Adaptive_shortlist { rank; k } ->
      Printf.sprintf "adaptive(%s,k=%d)" (Backend.name rank) k
  | Robust { rank; k; seeds; quantile; _ } ->
      Printf.sprintf "robust(%s,k=%d,seeds=%d,q=%.2f)" (Backend.name rank) k
        (List.length seeds) quantile

type result_ =
  | Priced of Backend.verdict
  | Rejected of Backend.infeasibility
  | Pruned of Backend.cost

(* ------------------------------------------------------------------ *)
(* Cutoff link: how a sharded worker prunes against the *global*
   incumbent.  [current] is polled before each verification and folded
   (min) into the local incumbent; [publish] is called whenever the
   local incumbent strictly improves.  Pruning is advisory — a stale or
   absent remote cutoff only costs work, never the argmin, because
   cutoffs are strict (a point whose cycles equal the incumbent is
   still fully priced). *)

type link = { publish : float -> unit; current : unit -> float option }

let min_cutoff a b =
  match (a, b) with
  | Some a, Some b -> Some (Float.min a b)
  | (Some _ as c), None | None, (Some _ as c) -> c
  | None, None -> None

let link_cutoff link local =
  match link with None -> local | Some l -> min_cutoff local (l.current ())

let link_publish link cycles = match link with None -> () | Some l -> l.publish cycles

type stats = {
  strategy : string;
  rank_host_s : float;
  rank_machine_us : float;
  machine_us : float;
}

let map_points ?pool f points =
  match pool with Some p -> Sw_util.Pool.map p f points | None -> List.map f points

(* ------------------------------------------------------------------ *)
(* Exhaustive: assess every point, in enumeration order — byte-for-byte
   the pre-strategy tuner behaviour, at any pool size. *)

(* [link] is never applied to exhaustive results — the contract is to
   price every point — but it is still *ticked* once per assessment:
   [current] drains pipe input and lets a worker link emit its periodic
   heartbeat, so an exhaustive shard under supervision is observably
   alive.  The returned cutoff is discarded; results are unchanged. *)
let run_exhaustive ~backend ~active_cpes ?pool ?link config kernel points =
  map_points ?pool
    (fun point ->
      (match link with Some l -> ignore (l.current () : float option) | None -> ());
      let variant = Space.to_variant point ~active_cpes in
      match Backend.assess backend config kernel variant with
      | Ok v -> (point, Priced v)
      | Error e -> (point, Rejected e))
    points

(* ------------------------------------------------------------------ *)
(* Ranked verification: rank the whole space with a cheap backend
   (pooled), then pay the expensive backend only for the most promising
   points — visited best-ranked first, in rungs of k, so the running
   incumbent's cycles become the cutoff that lets later verifications
   abandon early.

   - A shortlist is one rung.
   - The adaptive shortlist keeps adding rungs until one passes without
     strictly improving the incumbent (seeding the first incumbent does
     not count), so K is not a guess: a perfectly ranked space verifies
     exactly k points, a misranked one keeps paying until the ranking
     proves itself.
   - The robust strategy turns the cutoff off: a point that is mediocre
     on the quiet machine can still be the min-of-worst-case winner, so
     every shortlisted survivor must be fully priced.

   Determinism: ranking is order-preserving under the pool, the sort is
   total (predicted cycles, then enumeration index), verification is
   sequential and the rung schedule depends only on verdicts, so the
   outcome is identical at any pool size. *)

(* The ranking pass: assess the whole space with the (cheap) rank
   backend under the pool, and return the indexed results plus the
   verification order — a total sort by (predicted cycles, enumeration
   index) over the rank-feasible points.  [rank_machine_us] bills
   whatever the ranker simulated (0 for the static model; the training
   bill for the learned surrogate; per-point runs if the simulator
   itself ranks). *)
let rank_space ~rank ~active_cpes ?pool ?link config kernel points =
  let wall0 = Unix.gettimeofday () in
  (* tick the link every 32 rankings (ranking backends are cheap and
     spaces are huge — a drain per point would be all syscalls): the
     heartbeat keeps flowing through the long ranking pass, and the
     cutoff value is deliberately unused (ranking never prunes).  The
     counter races harmlessly under the pool; ticks are advisory. *)
  let ticks = ref 0 in
  let ranked =
    map_points ?pool
      (fun point ->
        (match link with
        | Some l ->
            incr ticks;
            if !ticks land 31 = 0 then ignore (l.current () : float option)
        | None -> ());
        (point, Backend.assess rank config kernel (Space.to_variant point ~active_cpes)))
      points
  in
  let rank_host_s = Unix.gettimeofday () -. wall0 in
  let rank_machine_us =
    List.fold_left
      (fun acc (_, r) ->
        match r with Ok v -> acc +. v.Backend.cost.Backend.machine_us | Error _ -> acc)
      0.0 ranked
  in
  let indexed = List.mapi (fun i (p, r) -> (i, p, r)) ranked in
  let feasible =
    List.filter_map (function i, p, Ok v -> Some (i, p, v) | _, _, Error _ -> None) indexed
  in
  let order =
    List.sort
      (fun (i1, _, (v1 : Backend.verdict)) (i2, _, v2) ->
        compare (v1.Backend.cycles, i1) (v2.Backend.cycles, i2))
      feasible
  in
  (indexed, order, rank_host_s, rank_machine_us)

let run_ranked ~adaptive ~cutoff_prune ?link ~rank ~k ~backend ~active_cpes ?pool ?obs config
    kernel points =
  let indexed, order, rank_host_s, rank_machine_us =
    rank_space ~rank ~active_cpes ?pool ?link config kernel points
  in
  let verdicts : (int, result_) Hashtbl.t = Hashtbl.create 16 in
  let incumbent = ref None in
  let improved = ref false in
  let verify (i, p, _) =
    let variant = Space.to_variant p ~active_cpes in
    let cutoff = if cutoff_prune then link_cutoff link !incumbent else None in
    match Backend.assess_budget ?cutoff backend config kernel variant with
    | Backend.Assessed v ->
        (match !incumbent with
        | Some c when v.Backend.cycles >= c -> ()
        | seeded ->
            if seeded <> None then improved := true;
            incumbent := Some v.Backend.cycles;
            link_publish link v.Backend.cycles);
        Hashtbl.replace verdicts i (Priced v)
    | Backend.Infeasible e -> Hashtbl.replace verdicts i (Rejected e)
    | Backend.Cut_off { cost; _ } -> Hashtbl.replace verdicts i (Pruned cost)
  in
  let rec split n = function
    | x :: rest when n > 0 ->
        let rung, rest = split (n - 1) rest in
        (x :: rung, rest)
    | rest -> ([], rest)
  in
  let rec race order =
    if order <> [] then begin
      (match obs with
      | Some sink when adaptive -> Sw_obs.Sink.incr sink "search.rungs"
      | _ -> ());
      improved := false;
      let rung, rest = split (Stdlib.max 1 k) order in
      List.iter verify rung;
      (* keep going while the incumbent is unset — a rung of
         rank-feasible points the verifier rejected must not end the
         search *)
      if adaptive && (!improved || !incumbent = None) then race rest
    end
  in
  race order;
  (* Results in enumeration order: verified points from the table,
     points the ranker rejected as Rejected, everything else pruned for
     free. *)
  let results =
    List.map
      (fun (i, p, r) ->
        match (Hashtbl.find_opt verdicts i, r) with
        | Some res, _ -> (p, res)
        | None, Error e -> (p, Rejected e) (* the ranker's compile check rejected it *)
        | None, Ok _ -> (p, Pruned Backend.zero_cost))
      indexed
  in
  (results, rank_host_s, rank_machine_us)

(* ------------------------------------------------------------------ *)
(* Robust: shortlist first, then re-assess every surviving (Priced)
   point under each seeded fault plan and score it by the [quantile] of
   its per-plan cycles (1.0 = worst case).  The argmin downstream then
   picks the point whose *bad days* are cheapest — min-of-worst-case —
   instead of the nominal winner.

   Determinism: plans are pure functions of (spec, seed, config), the
   point × seed fan-out is order-preserving under the pool, and the
   quantile is computed from a total sort, so the outcome is identical
   at any pool size. *)

let quantile_of ~quantile sorted =
  let n = Array.length sorted in
  let idx =
    Stdlib.min (n - 1)
      (Stdlib.max 0 (int_of_float (Float.ceil (quantile *. float_of_int n)) - 1))
  in
  sorted.(idx)

let rescore_robust ?link ~seeds ~quantile ~spec ~backend ~active_cpes ?pool ?obs config
    kernel results =
  let plans = List.map (fun seed -> Sw_fault.Fault.plan ~spec ~seed config) seeds in
  let survivors =
    List.filter_map
      (function i, (p, Priced v) -> Some (i, p, v) | _ -> None)
      (List.mapi (fun i pr -> (i, pr)) results)
  in
  let jobs =
    List.concat_map
      (fun (i, p, _) -> List.map (fun plan -> (i, p, plan)) plans)
      survivors
  in
  let assessed =
    map_points ?pool
      (fun (i, p, plan) ->
        (* liveness tick only: robust scoring never prunes on the link *)
        (match link with Some l -> ignore (l.current () : float option) | None -> ());
        (i, Backend.assess backend plan kernel (Space.to_variant p ~active_cpes)))
      jobs
  in
  (match obs with
  | Some sink -> Sw_obs.Sink.incr sink ~by:(List.length jobs) "search.robust_assessments"
  | None -> ());
  let scored =
    List.map
      (fun (i, p, (v : Backend.verdict)) ->
        let mine = List.filter_map (fun (j, r) -> if j = i then Some r else None) assessed in
        let cycles =
          List.map
            (function
              | Ok (pv : Backend.verdict) -> pv.Backend.cycles
              (* a plan that breaks the point entirely is the worst
                 case there is *)
              | Error _ -> Float.infinity)
            mine
        in
        let extra_cost =
          List.fold_left
            (fun acc -> function Ok pv -> Backend.add_cost acc pv.Backend.cost | Error _ -> acc)
            Backend.zero_cost mine
        in
        let sorted = Array.of_list cycles in
        Array.sort Float.compare sorted;
        let score = quantile_of ~quantile sorted in
        (i, (p, Priced { v with Backend.cycles = score; cost = Backend.add_cost v.Backend.cost extra_cost })))
      survivors
  in
  List.mapi (fun i pr -> match List.assoc_opt i scored with Some pr' -> pr' | None -> pr) results

let run strategy ~backend ~active_cpes ?pool ?obs ?link config kernel ~points =
  let ranked ~adaptive ~cutoff_prune ~rank ~k =
    run_ranked ~adaptive ~cutoff_prune ?link ~rank ~k ~backend ~active_cpes ?pool ?obs config
      kernel points
  in
  let results, rank_host_s, rank_machine_us =
    match strategy with
    | Exhaustive ->
        (* exhaustive's contract is to price every point: the link's
           cutoff is never applied, but it still ticks (heartbeats) *)
        (run_exhaustive ~backend ~active_cpes ?pool ?link config kernel points, 0.0, 0.0)
    | Shortlist { rank; k } -> ranked ~adaptive:false ~cutoff_prune:true ~rank ~k
    | Adaptive_shortlist { rank; k } -> ranked ~adaptive:true ~cutoff_prune:true ~rank ~k
    | Robust { rank; k; seeds; quantile; spec } ->
        (* robust disables cutoff pruning entirely (every survivor must
           be fully priced); the link only carries heartbeats *)
        let results, rank_host_s, rank_machine_us =
          ranked ~adaptive:false ~cutoff_prune:false ~rank ~k
        in
        ( rescore_robust ?link ~seeds ~quantile ~spec ~backend ~active_cpes ?pool ?obs config
            kernel results,
          rank_host_s,
          rank_machine_us )
  in
  let pruned =
    List.fold_left (fun n (_, r) -> match r with Pruned _ -> n + 1 | _ -> n) 0 results
  in
  (match obs with
  | Some sink when pruned > 0 -> Sw_obs.Sink.incr sink ~by:pruned "search.pruned"
  | _ -> ());
  (* the search's full machine bill: completed verdicts, the sunk
     prefixes of pruned runs, and whatever the ranking pass simulated *)
  let machine_us =
    List.fold_left
      (fun acc (_, r) ->
        match r with
        | Priced v -> acc +. v.Backend.cost.Backend.machine_us
        | Pruned c -> acc +. c.Backend.machine_us
        | Rejected _ -> acc)
      rank_machine_us results
  in
  (results, { strategy = name strategy; rank_host_s; rank_machine_us; machine_us })
