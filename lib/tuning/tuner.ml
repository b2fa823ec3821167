module Backend = Sw_backend.Backend

type method_ = Static | Empirical

let backend_of_method = function
  | Static -> Backend.static_model
  | Empirical -> Backend.simulator

type outcome = {
  backend : string;
  strategy : string;
  best : Sw_swacc.Kernel.variant;
  best_cycles : float;
  default_cycles : float;
  speedup : float;
  tuning_host_s : float;
  tuning_cpu_s : float;
  verify_host_s : float;
  machine_time_us : float;
  evaluated : int;
  infeasible : int;
  points_pruned : int;
  rank_host_s : float;
  rank_machine_us : float;
  journal_hits : int;
  journal_misses : int;
  restarts : int;
  quarantined : int list;
  link_lines_dropped : int;
}

(* Quality is always judged on the machine, whichever backend searched:
   one validation run each for the best and the default variant, timed
   as [verify_host_s] rather than billed as tuning cost.  Re-running
   what the simulator backend just assessed compiles nothing (the
   lowering is cached) and simulates nothing (the machine doorway
   memoizes the finished run on that lowering). *)
let verify config kernel ~best ~default =
  let params = config.Sw_sim.Config.params in
  let run variant =
    Sw_backend.Machine.cycles config (Sw_swacc.Lower.lower_cached_exn params kernel variant)
  in
  let wall0 = Unix.gettimeofday () in
  let best_cycles = run best in
  let default_cycles = run default in
  (best_cycles, default_cycles, Unix.gettimeofday () -. wall0)

(* One pass over a search's verdicts in enumeration order: the counts,
   the first priced point (the default variant's base) and the argmin
   (strict [<], so the earliest index wins ties).  A sequence, so the
   sharded tuner can tally a million merged journal entries without
   materializing them. *)
type tally = {
  points : int;
  evaluated : int;
  infeasible : int;
  first_priced : Space.point option;
  best : (Space.point * float) option;
  first_rejection : Backend.infeasibility option;
}

let tally (results : (Space.point * Search.result_) Seq.t) =
  let points = ref 0 and evaluated = ref 0 and infeasible = ref 0 in
  let first_priced = ref None and best = ref None and first_rejection = ref None in
  Seq.iter
    (fun (p, r) ->
      incr points;
      match r with
      | Search.Priced v ->
          incr evaluated;
          if Option.is_none !first_priced then first_priced := Some p;
          (match !best with
          | Some (_, c) when v.Backend.cycles >= c -> ()
          | _ -> best := Some (p, v.Backend.cycles))
      | Search.Rejected e ->
          incr infeasible;
          if Option.is_none !first_rejection then first_rejection := Some e
      | Search.Pruned _ -> ())
    results;
  {
    points = !points;
    evaluated = !evaluated;
    infeasible = !infeasible;
    first_priced = !first_priced;
    best = !best;
    first_rejection = !first_rejection;
  }

(* The one place a search becomes an outcome, in-process and sharded
   alike.  The default variant is the caller's, or else the first
   priced point with unroll 1 and single buffering; quality comes from
   [verify].  Journal and supervision fields start at their
   single-process values; the sharded tuner fills them in. *)
let outcome_of ~tuner ~backend ~strategy ~active_cpes ?default config kernel ~tuning_host_s
    ~tuning_cpu_s ~machine_time_us ~rank_host_s ~rank_machine_us t =
  match (t.best, t.first_priced) with
  | None, _ | _, None ->
      let detail =
        match t.first_rejection with
        | Some { Backend.backend = b; reason } -> Printf.sprintf " (%s: %s)" b reason
        | None -> ""
      in
      Error
        (`No_feasible_point
          (Printf.sprintf "%s tuner: no feasible point among %d in the search space%s" tuner
             t.points detail))
  | Some (best_point, _), Some p0 ->
      let best_variant = Space.to_variant best_point ~active_cpes in
      let default_variant =
        match default with
        | Some v -> v
        | None -> Space.to_variant { p0 with unroll = 1; double_buffer = false } ~active_cpes
      in
      let best_cycles, default_cycles, verify_host_s =
        verify config kernel ~best:best_variant ~default:default_variant
      in
      Ok
        {
          backend;
          strategy;
          best = best_variant;
          best_cycles;
          default_cycles;
          speedup = default_cycles /. best_cycles;
          tuning_host_s;
          tuning_cpu_s;
          verify_host_s;
          machine_time_us;
          evaluated = t.evaluated;
          infeasible = t.infeasible;
          points_pruned = t.points - t.evaluated - t.infeasible;
          rank_host_s;
          rank_machine_us;
          journal_hits = 0;
          journal_misses = 0;
          restarts = 0;
          quarantined = [];
          link_lines_dropped = 0;
        }

let tune ~backend ?(strategy = Search.Exhaustive) ?(active_cpes = 64) ?default ?pool ?obs
    ?checkpoint (config : Sw_sim.Config.t) kernel ~points =
  (* Observability never steers the search: [instrument] wraps the
     backend with pure recording, so verdicts — and hence the argmin —
     are byte-identical with and without [obs]. *)
  let backend =
    match obs with Some sink -> Backend.instrument sink backend | None -> backend
  in
  (* The journal wraps outermost so replayed points skip the whole
     stack (instrumentation included): a resumed sweep re-assesses
     nothing it already resolved, and the replayed cycles are
     bit-identical, so the argmin below cannot tell the difference. *)
  let jnl = Option.map (fun path -> Backend.journal ?sink:obs ~path config backend) checkpoint in
  let backend = match jnl with Some j -> Backend.journaled j | None -> backend in
  let span_t0 = Option.map (fun sink -> Sw_obs.Sink.now_us sink) obs in
  let wall0 = Unix.gettimeofday () in
  let cpu0 = Sys.time () in
  (* Assessing one point is pure up to the backend's internal
     mutex-guarded caches.  That makes the fan-out over a domain pool
     safe, and every strategy returns results in enumeration order, so
     the argmin (strict [<], earliest index wins ties) is bit-identical
     to the sequential run. *)
  let results, sstats =
    Search.run strategy ~backend ~active_cpes ?pool ?obs config kernel ~points
  in
  let tuning_host_s = Unix.gettimeofday () -. wall0 in
  let tuning_cpu_s = Sys.time () -. cpu0 in
  let t = tally (List.to_seq results) in
  (match (obs, span_t0) with
  | Some sink, Some t0 ->
      let evaluated = t.evaluated and infeasible = t.infeasible in
      let points_pruned = t.points - evaluated - infeasible in
      let machine_time_us = sstats.Search.machine_us in
      Sw_obs.Sink.incr sink "tuner.searches";
      Sw_obs.Sink.incr sink ~by:(List.length points) "tuner.points";
      Sw_obs.Sink.incr sink ~by:evaluated "tuner.evaluated";
      Sw_obs.Sink.incr sink ~by:infeasible "tuner.infeasible";
      Sw_obs.Sink.incr sink ~by:points_pruned "tuner.pruned";
      Sw_obs.Sink.add sink "tuner.machine_us" machine_time_us;
      Sw_obs.Sink.record sink
        {
          Sw_obs.Sink.cat = "tuner";
          name = Printf.sprintf "tune:%s" kernel.Sw_swacc.Kernel.name;
          pid = Sw_obs.Sink.host_pid;
          track = (Domain.self () :> int);
          t_us = t0;
          dur_us = Sw_obs.Sink.now_us sink -. t0;
          args =
            [
              ("backend", Sw_obs.Sink.String (Backend.name backend));
              ("strategy", Sw_obs.Sink.String sstats.Search.strategy);
              ("points", Sw_obs.Sink.Int (List.length points));
              ("evaluated", Sw_obs.Sink.Int evaluated);
              ("infeasible", Sw_obs.Sink.Int infeasible);
              ("pruned", Sw_obs.Sink.Int points_pruned);
              ("machine_us", Sw_obs.Sink.Float machine_time_us);
            ];
        }
  | _ -> ());
  let journal_hits = match jnl with Some j -> Backend.journal_hits j | None -> 0 in
  let journal_misses = match jnl with Some j -> Backend.journal_misses j | None -> 0 in
  Option.iter Backend.journal_close jnl;
  outcome_of ~tuner:(Backend.name backend) ~backend:(Backend.name backend)
    ~strategy:sstats.Search.strategy ~active_cpes ?default config kernel ~tuning_host_s
    ~tuning_cpu_s ~machine_time_us:sstats.Search.machine_us
    ~rank_host_s:sstats.Search.rank_host_s ~rank_machine_us:sstats.Search.rank_machine_us t
  |> Result.map (fun o -> { o with journal_hits; journal_misses })

(* ------------------------------------------------------------------ *)
(* Sharded tuning: fan the same search out across worker processes.
   The coordinator never assesses a point itself — each worker journals
   its shard's resolved assessments, and the merged journals are the
   whole result set, read back in global enumeration order into the
   same [outcome_of] as [tune], so the sharded pick ties-break
   identically to the single-process oracle. *)

let sum_stat dones key =
  List.fold_left
    (fun acc stats ->
      match Option.bind (Sw_obs.Json.member key stats) Sw_obs.Json.to_float with
      | Some v -> acc +. v
      | None -> acc)
    0.0 dones

let max_stat dones key =
  List.fold_left
    (fun acc stats ->
      match Option.bind (Sw_obs.Json.member key stats) Sw_obs.Json.to_float with
      | Some v -> Float.max acc v
      | None -> acc)
    0.0 dones

let tune_sharded ~backend_name ~strategy_name ~workers ~argv ~journal_of
    ?(active_cpes = 64) ?default ?(max_restarts = 2) ?hang_timeout_s
    (config : Sw_sim.Config.t) kernel ~points =
  if workers < 1 then invalid_arg "Tuner.tune_sharded: workers must be >= 1";
  let wall0 = Unix.gettimeofday () in
  let cpu0 = Sys.time () in
  let procs =
    List.init workers (fun shard ->
        Shard.launch ~shard ~argv:(argv ~shard ~journal:(journal_of shard)) ())
  in
  (* the coordinator's own enumeration overlaps the workers' start *)
  let points = Lazy.force points in
  let report = Shard.supervise ~max_restarts ?hang_timeout_s procs in
  let dones = List.filter (fun s -> s <> Sw_obs.Json.Null) report.Shard.stats in
  let supervision_quarantined =
    match report.Shard.health with Shard.Completed -> [] | Shard.Degraded q -> q
  in
  (* The merge decides what each journal is worth: a digest mismatch is
     a caller bug and fails the run; an unreadable journal (the shard
     died before its first write, or chaos shredded the file) just
     quarantines that shard — its points count as pruned, the rest of
     the merge stands. *)
  let mismatch = ref None in
  let unreadable = ref [] in
  let journal_paths = List.init workers journal_of in
  let on_issue issue =
    match issue with
    | Backend.Journal_mismatched _ ->
        if !mismatch = None then mismatch := Some (Backend.journal_issue_string issue)
    | Backend.Journal_unreadable { path; _ } ->
        List.iteri (fun shard p -> if p = path then unreadable := shard :: !unreadable)
          journal_paths
  in
  let merged = Backend.journal_merge ~on_issue ~config journal_paths in
  match !mismatch with
  | Some msg -> Error (`Worker_failure msg)
  | None ->
      let tuning_host_s = Unix.gettimeofday () -. wall0 in
      (* the coordinator's own cpu plus what the workers report: the
         real compute bill, not the coordinator's idle wait *)
      let tuning_cpu_s = Sys.time () -. cpu0 +. sum_stat dones "cpu_s" in
      let results =
        Seq.map
          (fun p ->
            let key = Backend.journal_key_of kernel (Space.to_variant p ~active_cpes) in
            match Hashtbl.find_opt merged key with
            | Some (Backend.Journal_ok { cycles; machine_us; machine_events }) ->
                ( p,
                  Search.Priced
                    { Backend.cycles; cost = { machine_us; machine_events }; breakdown = None } )
            | Some (Backend.Journal_infeasible { jbackend; jreason }) ->
                (p, Search.Rejected { Backend.backend = jbackend; reason = jreason })
            | None -> (p, Search.Pruned Backend.zero_cost))
          (List.to_seq points)
      in
      (* workers rank concurrently: the wall bill is the slowest *)
      outcome_of ~tuner:("sharded " ^ backend_name)
        ~backend:(Printf.sprintf "sharded(%s,workers=%d)" backend_name workers)
        ~strategy:strategy_name ~active_cpes ?default config kernel ~tuning_host_s
        ~tuning_cpu_s ~machine_time_us:(sum_stat dones "machine_us")
        ~rank_host_s:(max_stat dones "rank_host_s")
        ~rank_machine_us:(sum_stat dones "rank_machine_us") (tally results)
      |> Result.map (fun o ->
             {
               o with
               journal_hits = int_of_float (sum_stat dones "journal_hits");
               journal_misses = int_of_float (sum_stat dones "journal_misses");
               restarts = report.Shard.restarts;
               quarantined = List.sort_uniq compare (supervision_quarantined @ !unreadable);
               link_lines_dropped = report.Shard.lines_dropped;
             })

let tune_exn ~backend ?strategy ?active_cpes ?default ?pool ?obs ?checkpoint config kernel
    ~points =
  match
    tune ~backend ?strategy ?active_cpes ?default ?pool ?obs ?checkpoint config kernel ~points
  with
  | Ok o -> o
  | Error (`No_feasible_point msg) -> invalid_arg ("Tuner.tune: " ^ msg)

let outcome_to_json o =
  let open Sw_obs.Json in
  Obj
    [
      ("backend", Str o.backend);
      ("strategy", Str o.strategy);
      ( "best",
        Obj
          [
            ("grain", Int o.best.Sw_swacc.Kernel.grain);
            ("unroll", Int o.best.Sw_swacc.Kernel.unroll);
            ("active_cpes", Int o.best.Sw_swacc.Kernel.active_cpes);
            ("double_buffer", Bool o.best.Sw_swacc.Kernel.double_buffer);
          ] );
      ("best_cycles", Float o.best_cycles);
      ("default_cycles", Float o.default_cycles);
      ("speedup", Float o.speedup);
      ("tuning_host_s", Float o.tuning_host_s);
      ("tuning_cpu_s", Float o.tuning_cpu_s);
      ("verify_host_s", Float o.verify_host_s);
      ("machine_time_us", Float o.machine_time_us);
      ("evaluated", Int o.evaluated);
      ("infeasible", Int o.infeasible);
      ("pruned", Int o.points_pruned);
      ("rank_host_s", Float o.rank_host_s);
      ("rank_machine_us", Float o.rank_machine_us);
      ("journal_hits", Int o.journal_hits);
      ("journal_misses", Int o.journal_misses);
      ("restarts", Int o.restarts);
      ("quarantined", Arr (List.map (fun s -> Int s) o.quarantined));
      ("link_lines_dropped", Int o.link_lines_dropped);
    ]

let quality_loss ~static ~empirical =
  (static.best_cycles -. empirical.best_cycles) /. empirical.best_cycles

let pp_outcome fmt o =
  Format.fprintf fmt
    "@[<v>%s tuner (%s): best grain=%d unroll=%d db=%b@,speedup %.2fx (%.0f -> %.0f cycles)@,\
     host %.3f s wall (%.3f s cpu), machine %.0f us, %d evaluated, %d infeasible, %d pruned@]"
    o.backend o.strategy o.best.Sw_swacc.Kernel.grain o.best.Sw_swacc.Kernel.unroll
    o.best.Sw_swacc.Kernel.double_buffer o.speedup o.default_cycles o.best_cycles o.tuning_host_s
    o.tuning_cpu_s o.machine_time_us o.evaluated o.infeasible o.points_pruned
