module Kernel = Sw_swacc.Kernel
module Lower = Sw_swacc.Lower
module Lowered = Sw_swacc.Lowered

type cost = { machine_us : float; machine_events : int }

let zero_cost = { machine_us = 0.0; machine_events = 0 }

let add_cost a b =
  {
    machine_us = a.machine_us +. b.machine_us;
    machine_events = a.machine_events + b.machine_events;
  }

type verdict = { cycles : float; cost : cost; breakdown : Swpm.Predict.t option }

type infeasibility = { backend : string; reason : string }

type assessment =
  | Assessed of verdict
  | Infeasible of infeasibility
  | Cut_off of { at : float; cost : cost }

module type S = sig
  val name : string

  val description : string

  val assess :
    ?cutoff:float ->
    ?event_budget:int ->
    Sw_sim.Config.t ->
    Kernel.t ->
    Kernel.variant ->
    assessment
end

type t = (module S)

let name (module B : S) = B.name

let description (module B : S) = B.description

let assess_budget ?cutoff ?event_budget (module B : S) config kernel variant =
  B.assess ?cutoff ?event_budget config kernel variant

let assess (module B : S) config kernel variant =
  match B.assess config kernel variant with
  | Assessed v -> Ok v
  | Infeasible e -> Error e
  | Cut_off _ ->
      (* only budgeted assessments can be cut off *)
      invalid_arg (Printf.sprintf "Backend.assess: %s returned Cut_off without a budget" B.name)

let assess_exn backend config kernel variant =
  match assess backend config kernel variant with
  | Ok v -> v
  | Error { backend = b; reason } ->
      invalid_arg
        (Printf.sprintf "Backend.assess_exn: %s rejects %s: %s" b
           kernel.Kernel.name reason)

let cycles_exn backend config kernel variant =
  (assess_exn backend config kernel variant).cycles

(* Stamp the implementation's outcome and the machine time (and
   simulator events) it consumed.  No clock is read here: host time is
   measured once per search or request by the boundary that reports it,
   not per point. *)
let timed f =
  match f () with
  | `Infeasible e -> Infeasible e
  | `Priced (cycles, machine_us, machine_events, breakdown) ->
      Assessed { cycles; cost = { machine_us; machine_events }; breakdown }
  | `Cut (at, machine_us, machine_events) -> Cut_off { at; cost = { machine_us; machine_events } }

(* Static estimators price the whole variant in one closed-form shot;
   a [cutoff] can still classify the answer as a losing candidate, and
   [event_budget] has nothing to meter. *)
let static_result ?cutoff cycles breakdown =
  match cutoff with
  | Some c when cycles > c -> `Cut (cycles, 0.0, 0)
  | _ -> `Priced (cycles, 0.0, 0, breakdown)

(* ------------------------------------------------------------------ *)
(* The four estimators                                                 *)

let static_model : t =
  (module struct
    let name = "model"

    let description = "closed-form static model (Eqs. 1-12); compiles a summary, runs nothing"

    let assess ?cutoff ?event_budget:_ (config : Sw_sim.Config.t) kernel variant =
      let params = config.Sw_sim.Config.params in
      timed (fun () ->
          match Lower.summarize params kernel variant with
          | Error reason -> `Infeasible { backend = name; reason }
          | Ok summary ->
              let p = Swpm.Predict.run params summary in
              static_result ?cutoff p.Swpm.Predict.t_total (Some p))
  end)

let simulator : t =
  (module struct
    let name = "sim"

    let description = "cycle-level simulation (the machine stand-in); lowers fully and executes"

    let assess ?cutoff ?event_budget config kernel variant =
      let params = config.Sw_sim.Config.params in
      let us cycles =
        Sw_util.Units.cycles_to_us ~freq_hz:params.Sw_arch.Params.freq_hz cycles
      in
      timed (fun () ->
          match Lower.lower_cached params kernel variant with
          | Error reason -> `Infeasible { backend = name; reason }
          | Ok lowered -> (
              match Machine.run_budget ?cutoff ?event_budget config lowered with
              | Sw_sim.Engine.Finished m ->
                  let cycles = m.Sw_sim.Metrics.cycles in
                  `Priced (cycles, us cycles, m.Sw_sim.Metrics.events, None)
              | Sw_sim.Engine.Cutoff { at; events } ->
                  (* bill the simulated prefix that was actually run *)
                  `Cut (at, us at, events)))
  end)

let roofline : t =
  (module struct
    let name = "roofline"

    let description = "Roofline upper bound (Section VI); arithmetic intensity only"

    let assess ?cutoff ?event_budget:_ (config : Sw_sim.Config.t) kernel variant =
      let params = config.Sw_sim.Config.params in
      timed (fun () ->
          match Lower.summarize params kernel variant with
          | Error reason -> `Infeasible { backend = name; reason }
          | Ok summary ->
              let r = Swpm.Roofline.analyze params summary in
              static_result ?cutoff r.Swpm.Roofline.predicted_cycles None)
  end)

let calibrate config (lowered : Lowered.t) =
  let params = config.Sw_sim.Config.params in
  let s = lowered.Lowered.summary in
  if s.Lowered.gload_count = 0 then Swpm.Hybrid.no_calibration
  else Swpm.Hybrid.calibration_of params s ~measured_cycles:(Machine.cycles config lowered)

let hybrid ?profile () : t =
  (module struct
    let name = "hybrid"

    let description = "static model + one cached lightweight profile per kernel (Section III-F)"

    (* Per-kernel calibration cache.  The profile variant depends only
       on the kernel (and the requested CPE count), never on which
       assessment arrives first, so pooled and sequential runs agree. *)
    let lock = Mutex.create ()

    let cache : (string * int * int, Swpm.Hybrid.calibration * float) Hashtbl.t =
      Hashtbl.create 8

    let profile_lowered params kernel active_cpes =
      let try_variant v = Result.to_option (Lower.lower params kernel v) in
      match profile with
      | Some v -> try_variant v
      | None ->
          List.find_map
            (fun grain ->
              try_variant
                { Kernel.grain; unroll = 1; active_cpes; double_buffer = false })
            [ 64; 32; 16; 8; 4; 2; 1 ]

    (* Returns the calibration plus the machine microseconds to bill
       this caller: the full profile cost for whichever assessment ran
       it, zero for everyone hitting the cache afterwards. *)
    let calibration_for config kernel (variant : Kernel.variant) =
      let params = config.Sw_sim.Config.params in
      let key = (kernel.Kernel.name, kernel.Kernel.n_elements, variant.Kernel.active_cpes) in
      Mutex.lock lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock lock)
        (fun () ->
          match Hashtbl.find_opt cache key with
          | Some (cal, _) -> (cal, 0.0)
          | None ->
              let cal =
                match profile_lowered params kernel variant.Kernel.active_cpes with
                | Some lowered -> calibrate config lowered
                | None -> Swpm.Hybrid.no_calibration
              in
              let profile_us =
                Sw_util.Units.cycles_to_us ~freq_hz:params.Sw_arch.Params.freq_hz
                  cal.Swpm.Hybrid.profile_cycles
              in
              Hashtbl.add cache key (cal, profile_us);
              (cal, profile_us))

    let assess ?cutoff ?event_budget:_ config kernel variant =
      let params = config.Sw_sim.Config.params in
      timed (fun () ->
          match Lower.summarize params kernel variant with
          | Error reason -> `Infeasible { backend = name; reason }
          | Ok summary ->
              if summary.Lowered.gload_count = 0 then
                let p = Swpm.Predict.run params summary in
                static_result ?cutoff p.Swpm.Predict.t_total (Some p)
              else
                let calibration, machine_us = calibration_for config kernel variant in
                let p = Swpm.Hybrid.predict params summary ~calibration in
                let cycles = p.Swpm.Predict.t_total in
                (* the profile bill sticks to this verdict even when the
                   prediction is then classified as a losing candidate *)
                (match cutoff with
                | Some c when cycles > c -> `Cut (cycles, machine_us, 0)
                | _ -> `Priced (cycles, machine_us, 0, Some p)))
  end)

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)

let instrument sink (inner : t) : t =
  let module I = (val inner : S) in
  let module Wrapped = struct
    let name = I.name

    let description = I.description

    let assess ?cutoff ?event_budget config kernel (variant : Kernel.variant) =
      let t0 = Sw_obs.Sink.now_us sink in
      let r = I.assess ?cutoff ?event_budget config kernel variant in
      let t1 = Sw_obs.Sink.now_us sink in
      let verdict_args =
        match r with
        | Assessed v ->
            Sw_obs.Sink.incr sink (Printf.sprintf "backend.%s.ok" I.name);
            Sw_obs.Sink.add sink
              (Printf.sprintf "backend.%s.machine_us" I.name)
              v.cost.machine_us;
            [
              ("cycles", Sw_obs.Sink.Float v.cycles);
              ("machine_us", Sw_obs.Sink.Float v.cost.machine_us);
            ]
        | Infeasible e ->
            Sw_obs.Sink.incr sink (Printf.sprintf "backend.%s.infeasible" I.name);
            [ ("infeasible", Sw_obs.Sink.String e.reason) ]
        | Cut_off { at; cost } ->
            Sw_obs.Sink.incr sink (Printf.sprintf "backend.%s.cutoff" I.name);
            Sw_obs.Sink.add sink
              (Printf.sprintf "backend.%s.machine_us" I.name)
              cost.machine_us;
            [
              ("cut_at", Sw_obs.Sink.Float at);
              ("machine_us", Sw_obs.Sink.Float cost.machine_us);
            ]
      in
      Sw_obs.Sink.record sink
        {
          Sw_obs.Sink.cat = "backend";
          name = Printf.sprintf "%s:%s" I.name kernel.Kernel.name;
          pid = Sw_obs.Sink.host_pid;
          track = (Domain.self () :> int);
          t_us = t0;
          dur_us = t1 -. t0;
          args =
            [
              ("grain", Sw_obs.Sink.Int variant.Kernel.grain);
              ("unroll", Sw_obs.Sink.Int variant.Kernel.unroll);
              ("active_cpes", Sw_obs.Sink.Int variant.Kernel.active_cpes);
              ("double_buffer", Sw_obs.Sink.Bool variant.Kernel.double_buffer);
            ]
            @ verdict_args;
        };
      r
  end in
  (module Wrapped : S)

(* ------------------------------------------------------------------ *)
(* Memoization                                                         *)

type memo_key = {
  mk_config : Sw_sim.Config.t;
  mk_kernel : string;
  mk_elems : int;
  mk_vw : int;
  mk_variant : Kernel.variant;
}

type memo = {
  memo_backend : t;
  memo_hits : int Atomic.t;
  memo_misses : int Atomic.t;
  memo_clear : unit -> unit;
}

(* A key is either resolved or being computed right now; waiters block
   on the condition until the computing domain publishes its result. *)
type memo_slot = Memo_done of assessment | Memo_running

let memoize ?sink (inner : t) : memo =
  let module I = (val inner : S) in
  let table : (memo_key, memo_slot) Hashtbl.t = Hashtbl.create 64 in
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let hits = Atomic.make 0 in
  let misses = Atomic.make 0 in
  (* hit/miss counters mirror the atomics one-for-one: both are bumped
     on the same code path, so sink totals equal memo_hits/memo_misses
     even under pool fan-out *)
  let observe key =
    match sink with Some s -> Sw_obs.Sink.incr s key | None -> ()
  in
  let module M = struct
    let name = Printf.sprintf "memo(%s)" I.name

    let description = Printf.sprintf "memoizing %s" I.description

    let assess ?cutoff ?event_budget config kernel (variant : Kernel.variant) =
      if Option.is_some cutoff || Option.is_some event_budget then begin
        (* a budgeted query gets exactly the answer a fresh search would:
           the inner backend's, never a cached full verdict *)
        Atomic.incr misses;
        observe "memo.misses";
        I.assess ?cutoff ?event_budget config kernel variant
      end
      else
      let key =
        {
          mk_config = config;
          mk_kernel = kernel.Kernel.name;
          mk_elems = kernel.Kernel.n_elements;
          mk_vw = kernel.Kernel.vector_width;
          mk_variant = variant;
        }
      in
      (* single-flight: racing misses of one key wait for the first
         domain instead of computing again, so the inner backend is
         asked exactly once per distinct key and the counters are exact
         under any fan-out *)
      let decision =
        Mutex.lock lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock lock)
          (fun () ->
            let rec acquire () =
              match Hashtbl.find_opt table key with
              | Some (Memo_done r) -> `Hit r
              | Some Memo_running ->
                  Condition.wait cond lock;
                  acquire ()
              | None ->
                  Hashtbl.replace table key Memo_running;
                  `Miss
            in
            acquire ())
      in
      match decision with
      | `Hit r ->
          Atomic.incr hits;
          observe "memo.hits";
          (* the work was already paid for by the miss *)
          (match r with
          | Assessed v -> Assessed { v with cost = zero_cost }
          | Infeasible _ as r -> r
          | Cut_off _ -> assert false (* never stored *))
      | `Miss ->
          Atomic.incr misses;
          observe "memo.misses";
          let publish slot =
            Mutex.lock lock;
            (match slot with
            | Some r -> Hashtbl.replace table key (Memo_done r)
            | None -> Hashtbl.remove table key);
            Condition.broadcast cond;
            Mutex.unlock lock
          in
          (match I.assess config kernel variant with
          | exception e ->
              publish None;
              raise e
          | Cut_off _ as r ->
              (* only a budget can cut a run off; never stored *)
              publish None;
              r
          | (Assessed _ | Infeasible _) as r ->
              publish (Some r);
              r)
  end in
  {
    memo_backend = (module M : S);
    memo_hits = hits;
    memo_misses = misses;
    memo_clear =
      (fun () ->
        Mutex.lock lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock lock)
          (fun () -> Hashtbl.reset table));
  }

let memoized m = m.memo_backend

let memo_hits m = Atomic.get m.memo_hits

let memo_misses m = Atomic.get m.memo_misses

let memo_clear m = m.memo_clear ()

(* ------------------------------------------------------------------ *)
(* Graceful degradation                                                *)

exception Timeout of { backend : string; limit_s : float; elapsed_s : float }

let with_timeout ?sink ~limit_s (inner : t) : t =
  if not (limit_s >= 0.0) then invalid_arg "Backend.with_timeout: limit_s must be >= 0";
  let module I = (val inner : S) in
  let module W = struct
    let name = Printf.sprintf "timeout(%s)" I.name

    let description =
      Printf.sprintf "%s, disqualified after %gs of host wall clock" I.description limit_s

    (* OCaml cannot preempt a pure computation, so the watchdog is
       post-hoc: the assessment runs to completion, and an answer that
       arrived too late is discarded and reported as a Timeout — which
       is exactly what a degradation chain needs to know. *)
    let assess ?cutoff ?event_budget config kernel variant =
      let t0 = Unix.gettimeofday () in
      let r = I.assess ?cutoff ?event_budget config kernel variant in
      let elapsed_s = Unix.gettimeofday () -. t0 in
      if elapsed_s > limit_s then begin
        (match sink with
        | Some s -> Sw_obs.Sink.incr s (Printf.sprintf "backend.timeout.%s" I.name)
        | None -> ());
        raise (Timeout { backend = I.name; limit_s; elapsed_s })
      end;
      r
  end in
  (module W : S)

let fallback ?sink (chain : t list) : t =
  if chain = [] then invalid_arg "Backend.fallback: empty chain";
  let names = List.map name chain in
  let module W = struct
    let name = Printf.sprintf "fallback(%s)" (String.concat ">" names)

    let description =
      Printf.sprintf "degrades through %s; never raises" (String.concat " > " names)

    let assess ?cutoff ?event_budget config kernel variant =
      let degraded backend_name =
        match sink with
        | Some s -> Sw_obs.Sink.incr s (Printf.sprintf "backend.degraded.%s" backend_name)
        | None -> ()
      in
      let rec go last_err = function
        | [] ->
            (* every estimator failed: surface a typed answer instead
               of an exception, so tuners treat the point like any
               other rejected variant *)
            (match sink with
            | Some s -> Sw_obs.Sink.incr s "backend.fallback.exhausted"
            | None -> ());
            Infeasible
              {
                backend = name;
                reason = Printf.sprintf "all backends failed (last: %s)" last_err;
              }
        | (module B : S) :: rest -> (
            match B.assess ?cutoff ?event_budget config kernel variant with
            | r -> r
            | exception e ->
                degraded B.name;
                go (Printexc.to_string e) rest)
      in
      go "none tried" chain
  end in
  (module W : S)

(* ------------------------------------------------------------------ *)
(* Crash-safe journaling                                               *)

type journal = {
  j_backend : t;
  j_hits : int Atomic.t;
  j_misses : int Atomic.t;
  j_close : unit -> unit;
}

type journal_entry =
  | Journal_ok of { cycles : float; machine_us : float; machine_events : int }
  | Journal_infeasible of { jbackend : string; jreason : string }

let config_digest (config : Sw_sim.Config.t) =
  Digest.to_hex (Digest.string (Marshal.to_string config []))

(* One JSON object per line, written with Printf and parsed back with
   the mirror-image Scanf format.  Floats use %.17g, which round-trips
   IEEE doubles exactly — replayed cycles are bit-identical to the run
   that journaled them. *)
let journal_header_fmt : _ format6 =
  "{\"journal\": \"swpm\", \"version\": 1, \"config\": %S}"

let journal_line_fmt : _ format6 =
  "{\"kernel\": %S, \"elems\": %d, \"vw\": %d, \"grain\": %d, \"unroll\": %d, \
   \"cpes\": %d, \"db\": %B, \"status\": %S, \"cycles\": %.17g, \
   \"machine_us\": %.17g, \"events\": %d, \"backend\": %S, \"reason\": %S}"

let journal_line_scan_fmt : _ format6 =
  "{\"kernel\": %S, \"elems\": %d, \"vw\": %d, \"grain\": %d, \"unroll\": %d, \
   \"cpes\": %d, \"db\": %B, \"status\": %S, \"cycles\": %f, \
   \"machine_us\": %f, \"events\": %d, \"backend\": %S, \"reason\": %S}"

type journal_key = {
  jk_kernel : string;
  jk_elems : int;
  jk_vw : int;
  jk_variant : Kernel.variant;
}

let parse_journal_line line =
  try
    Scanf.sscanf line journal_line_scan_fmt
      (fun kernel elems vw grain unroll cpes db status cycles machine_us events jbackend
           jreason ->
        let key =
          {
            jk_kernel = kernel;
            jk_elems = elems;
            jk_vw = vw;
            jk_variant = { Kernel.grain; unroll; active_cpes = cpes; double_buffer = db };
          }
        in
        match status with
        | "ok" -> Some (key, Journal_ok { cycles; machine_us; machine_events = events })
        | "infeasible" -> Some (key, Journal_infeasible { jbackend; jreason })
        | _ -> None)
  with Scanf.Scan_failure _ | End_of_file | Failure _ -> None

(* Reading and writing journal files, shared by the appending wrapper
   below and the shard coordinator, which merges per-worker journals
   without ever opening them for appending. *)

exception Journal_mismatch of { path : string; expected : string; found : string }

let journal_key_of (kernel : Kernel.t) (variant : Kernel.variant) =
  {
    jk_kernel = kernel.Kernel.name;
    jk_elems = kernel.Kernel.n_elements;
    jk_vw = kernel.Kernel.vector_width;
    jk_variant = variant;
  }

let journal_header_line config =
  Printf.sprintf journal_header_fmt (config_digest config)

let journal_entry_line key entry =
  let v = key.jk_variant in
  let status, cycles, machine_us, events, jbackend, reason =
    match entry with
    | Journal_ok { cycles; machine_us; machine_events } ->
        ("ok", cycles, machine_us, machine_events, "", "")
    | Journal_infeasible { jbackend; jreason } -> ("infeasible", 0.0, 0.0, 0, jbackend, jreason)
  in
  Printf.sprintf journal_line_fmt key.jk_kernel key.jk_elems key.jk_vw v.Kernel.grain
    v.Kernel.unroll v.Kernel.active_cpes v.Kernel.double_buffer status cycles machine_us
    events jbackend reason

type journal_issue =
  | Journal_mismatched of { path : string; expected : string; found : string }
  | Journal_unreadable of { path : string; reason : string }

let journal_issue_string = function
  | Journal_mismatched { path; expected; found } ->
      Printf.sprintf "journal %s is bound to config %s, expected %s" path found expected
  | Journal_unreadable { path; reason } ->
      Printf.sprintf "journal %s is unreadable: %s" path reason

let journal_read ~config path =
  let digest = config_digest config in
  match open_in path with
  | exception Sys_error _ -> Ok [] (* never created: nothing to replay *)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match input_line ic with
          | exception End_of_file ->
              (* a zero-length journal is not a journal: surface it
                 rather than silently reporting an empty result set *)
              Error (Journal_unreadable { path; reason = "empty file" })
          | header -> (
              match
                Scanf.sscanf header "{\"journal\": %S, \"version\": %d, \"config\": %S}"
                  (fun _ v d -> (v, d))
              with
              | exception (Scanf.Scan_failure _ | End_of_file | Failure _) ->
                  Error (Journal_unreadable { path; reason = "malformed header" })
              | 1, d when d = digest ->
                  let entries = ref [] in
                  (try
                     while true do
                       (* a truncated tail line (kill mid-write) parses as
                          nothing and is dropped, same as the resume path *)
                       match parse_journal_line (input_line ic) with
                       | Some kv -> entries := kv :: !entries
                       | None -> ()
                     done
                   with End_of_file -> ());
                  Ok (List.rev !entries)
              | v, d ->
                  let found = if v <> 1 then Printf.sprintf "<version %d>" v else d in
                  Error (Journal_mismatched { path; expected = digest; found })))

let journal ?sink ~path config (inner : t) : journal =
  let module I = (val inner : S) in
  let table : (journal_key, journal_entry) Hashtbl.t = Hashtbl.create 64 in
  (* Three-way open: nothing to replay (no file, or a zero-length one
     — what [Filename.temp_file] pre-creates for every ephemeral shard
     journal), a replayable file, or a file that exists but cannot be
     trusted — garbage bytes, a foreign digest.  The last falls back to
     a fresh journal (the run recomputes; correctness never depends on
     the replay) but is worth a warning counter: an operator seeing
     ["journal.unreadable"] climb knows checkpoints are being
     discarded, not used. *)
  let replayed =
    match (Unix.stat path).Unix.st_size with
    | exception Unix.Unix_error _ -> false
    | 0 -> false
    | _ -> (
        match journal_read ~config path with
        | Ok entries ->
            (* the last entry for a key wins, as it did when written *)
            List.iter (fun (key, entry) -> Hashtbl.replace table key entry) entries;
            true
        | Error issue ->
            (match sink with Some s -> Sw_obs.Sink.incr s "journal.unreadable" | None -> ());
            Printf.eprintf "swpm: %s: starting fresh\n%!" (journal_issue_string issue);
            false)
  in
  let oc =
    if replayed then begin
      (* Crash recovery: a kill mid-write can leave a partial final
         line with no newline.  Appending after it would glue the first
         new entry onto the stale tail, silently losing both on the
         next replay — so cut the file back to its last complete line
         before appending. *)
      (let ic = open_in_bin path in
       let len = in_channel_length ic in
       let contents = really_input_string ic len in
       close_in ic;
       if len > 0 && contents.[len - 1] <> '\n' then
         let keep =
           match String.rindex_opt contents '\n' with Some i -> i + 1 | None -> 0
         in
         Unix.truncate path keep);
      open_out_gen [ Open_append; Open_creat ] 0o644 path
    end
    else begin
      let oc = open_out path in
      output_string oc (journal_header_line config);
      output_char oc '\n';
      flush oc;
      oc
    end
  in
  let lock = Mutex.create () in
  let hits = Atomic.make 0 in
  let misses = Atomic.make 0 in
  let observe key =
    match sink with Some s -> Sw_obs.Sink.incr s key | None -> ()
  in
  let write_line key entry =
    output_string oc (journal_entry_line key entry);
    output_char oc '\n';
    (* flush per line: a kill between lines loses at most the point in
       flight, never a committed one *)
    flush oc
  in
  let module J = struct
    let name = Printf.sprintf "journal(%s)" I.name

    let description = Printf.sprintf "%s, journaled to %s" I.description path

    let assess ?cutoff ?event_budget run_config kernel (variant : Kernel.variant) =
      if run_config <> config then
        (* a different configuration than the journal is bound to:
           pass straight through rather than replay a wrong answer *)
        I.assess ?cutoff ?event_budget run_config kernel variant
      else begin
        let key = journal_key_of kernel variant in
        let cached =
          Mutex.lock lock;
          Fun.protect
            ~finally:(fun () -> Mutex.unlock lock)
            (fun () -> Hashtbl.find_opt table key)
        in
        match cached with
        | Some entry -> (
            Atomic.incr hits;
            observe "journal.hits";
            match entry with
            | Journal_ok { cycles; _ } ->
                (* the cost was paid by the run that journaled it *)
                Assessed { cycles; cost = zero_cost; breakdown = None }
            | Journal_infeasible { jbackend; jreason } ->
                Infeasible { backend = jbackend; reason = jreason })
        | None -> (
            Atomic.incr misses;
            observe "journal.misses";
            let r = I.assess ?cutoff ?event_budget run_config kernel variant in
            match r with
            | Cut_off _ ->
                (* budget-dependent, not a property of the point: a
                   resumed run must re-assess it *)
                r
            | Assessed v ->
                let entry =
                  Journal_ok
                    {
                      cycles = v.cycles;
                      machine_us = v.cost.machine_us;
                      machine_events = v.cost.machine_events;
                    }
                in
                Mutex.lock lock;
                Fun.protect
                  ~finally:(fun () -> Mutex.unlock lock)
                  (fun () ->
                    Hashtbl.replace table key entry;
                    write_line key entry);
                r
            | Infeasible e ->
                let entry = Journal_infeasible { jbackend = e.backend; jreason = e.reason } in
                Mutex.lock lock;
                Fun.protect
                  ~finally:(fun () -> Mutex.unlock lock)
                  (fun () ->
                    Hashtbl.replace table key entry;
                    write_line key entry);
                r)
      end
  end in
  {
    j_backend = (module J : S);
    j_hits = hits;
    j_misses = misses;
    j_close = (fun () -> close_out_noerr oc);
  }

let journaled j = j.j_backend

let journal_hits j = Atomic.get j.j_hits

let journal_misses j = Atomic.get j.j_misses

let journal_close j = j.j_close ()

let journal_merge ?on_issue ~config paths =
  let merged : (journal_key, journal_entry) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun path ->
      match journal_read ~config path with
      | Ok entries ->
          List.iter
            (fun (key, entry) ->
              if not (Hashtbl.mem merged key) then Hashtbl.add merged key entry)
            entries
      | Error issue -> (
          match (on_issue, issue) with
          | Some f, _ -> f issue (* the caller decides; the file contributes nothing *)
          | None, Journal_mismatched { path; expected; found } ->
              (* a digest conflict is a caller bug, not an IO accident *)
              raise (Journal_mismatch { path; expected; found })
          | None, Journal_unreadable _ -> () (* damaged file: merge what survives *)))
    paths;
  merged

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

let registry : (string * (unit -> t)) list ref =
  ref
    [
      ("model", fun () -> static_model);
      ("sim", fun () -> simulator);
      ("hybrid", fun () -> hybrid ());
      ("roofline", fun () -> roofline);
    ]

let aliases =
  [
    ("static", "model");
    ("static-model", "model");
    ("empirical", "sim");
    ("simulator", "sim");
  ]

let register key make =
  let key = String.lowercase_ascii key in
  registry := List.filter (fun (k, _) -> k <> key) !registry @ [ (key, make) ]

let registered () = List.map fst !registry

let find key =
  let key = String.lowercase_ascii key in
  let key = Option.value (List.assoc_opt key aliases) ~default:key in
  Option.map (fun make -> make ()) (List.assoc_opt key !registry)

let find_exn key =
  match find key with
  | Some b -> b
  | None ->
      invalid_arg
        (Printf.sprintf "Backend.find_exn: unknown backend %S (available: %s)" key
           (String.concat ", " (registered ())))
