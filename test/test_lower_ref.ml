(* The factored static summary and the flat lowering against the
   enumerating references (Lower_ref): equal on random kernels and
   variants — strided and odd-based arrays, irregular gloads, compiler
   spills, tail chunks, more CPEs than chunks, double buffering — and
   the summary's request counts and the flat programs' DMA rows equal
   what the simulator counts on the registry kernels. *)

open Sw_swacc
module Registry = Sw_workloads.Registry

let p = Sw_arch.Params.default

let body = [ Body.Store ("out", Body.Add (Body.load "a", Body.load "b")) ]

let gen_copy ~n i =
  QCheck.Gen.(
    let* bytes = oneof [ int_range 1 64; oneofl [ 4; 8; 16; 24; 256 ] ] in
    let* direction = oneofl [ Kernel.In; Kernel.Out; Kernel.Inout ] in
    let* freq = frequency [ (4, return Kernel.Per_element); (1, return Kernel.Per_chunk) ] in
    let* layout =
      frequency
        [
          (3, return Kernel.Contiguous);
          (2, map (fun extra -> Kernel.Strided (bytes + extra)) (int_range 0 700));
        ]
    in
    let* base_addr = oneof [ int_range 0 100_000; map (fun k -> k * 4096) (int_range 0 64) ] in
    return
      {
        Kernel.array_name = Printf.sprintf "a%d" i;
        bytes_per_elem = bytes;
        direction;
        freq;
        layout;
        base_addr = base_addr + (i * n * 1024);
      })

(* Every kernel is named "q" with a small element count, so kernels
   that differ only in their closures collide on everything but
   physical identity — exactly what the memo tables must tell apart. *)
let gen_kernel =
  QCheck.Gen.(
    let* n = oneof [ int_range 1 300; int_range 300 5000 ] in
    let* ncopies = int_range 1 4 in
    let* copies = flatten_l (List.init ncopies (gen_copy ~n)) in
    let* gloads =
      opt
        (map2
           (fun a m ->
             {
               Kernel.g_bytes = 8;
               count_for = (fun e -> (e * a) mod m);
               addr_for = (fun e j -> (e * 64) + (j * 8));
             })
           (int_range 1 97) (int_range 1 9))
    in
    let* spill_gloads =
      opt (map2 (fun t c -> fun grain -> if grain < t then c - grain else 0) (int_range 1 40) (int_range 0 20))
    in
    let* vector_width = oneofl [ 1; 2; 4 ] in
    let* body_trips_per_element = int_range 1 5 in
    return
      (Kernel.make ~name:"q" ~n_elements:n ~copies ~body ~body_trips_per_element ?gloads
         ?spill_gloads ~vector_width ()))

let gen_variant =
  QCheck.Gen.(
    let* grain = oneof [ int_range 1 40; int_range 1 600; oneofl [ 512; 777; 1000; 4096 ] ] in
    let* unroll = int_range 1 8 in
    let* active_cpes = oneof [ oneofl [ 1; 7; 64 ]; int_range 1 70 ] in
    let* double_buffer = bool in
    return { Kernel.grain; unroll; active_cpes; double_buffer })

let gen_params =
  QCheck.Gen.(
    map2
      (fun trans_size spm_bytes -> { p with Sw_arch.Params.trans_size; spm_bytes })
      (oneofl [ 64; 128; 256; 512 ])
      (oneofl [ p.Sw_arch.Params.spm_bytes; 1 lsl 20 ]))

let prop_summary_equals_reference =
  QCheck.Test.make ~name:"summarize = Lower_ref.summarize" ~count:400
    (QCheck.make
       ~print:(fun (params, (k : Kernel.t), vs) ->
         Printf.sprintf "trans %d, n %d, %d copies, gloads %b, spills %b, variants %s"
           params.Sw_arch.Params.trans_size k.Kernel.n_elements (List.length k.Kernel.copies)
           (k.Kernel.gloads <> None) (k.Kernel.spill_gloads <> None)
           (String.concat " "
              (List.map
                 (fun (v : Kernel.variant) ->
                   Printf.sprintf "g%d/u%d/c%d/db%b" v.grain v.unroll v.active_cpes v.double_buffer)
                 vs)))
       QCheck.Gen.(triple gen_params gen_kernel (list_size (int_range 1 6) gen_variant)))
    (fun (params, kernel, variants) ->
      (* several variants per kernel, so memoized halves are reused *)
      List.for_all
        (fun v -> Lower.summarize params kernel v = Lower_ref.summarize params kernel v)
        variants)

(* A lowering's summary comes from the same halves. *)
let prop_lower_summary_equals_reference =
  QCheck.Test.make ~name:"lower's summary = Lower_ref.summarize" ~count:60
    (QCheck.make QCheck.Gen.(pair gen_kernel gen_variant))
    (fun (kernel, v) ->
      match (Lower.lower p kernel v, Lower_ref.summarize p kernel v) with
      | Ok l, Ok s -> l.Lowered.summary = s
      | Error a, Error b -> a = b
      | _ -> false)

(* The flat lowering is the engine's compile of the reference item
   trees: structurally equal programs, or the same [Error].  Core-group
   counts vary too, so DMA rows route over several controllers. *)
let flat_equals_reference params kernel v =
  match (Lower.lower params kernel v, Lower_ref.lower params kernel v) with
  | Ok l, Ok items ->
      l.Lowered.programs = Sw_sim.Engine.compile (Sw_sim.Config.default params) items
  | Error a, Error b -> a = b
  | _ -> false

let prop_flat_equals_reference =
  QCheck.Test.make ~name:"lower = Engine.compile . Lower_ref.lower" ~count:300
    (QCheck.make
       QCheck.Gen.(
         triple
           (map2 (fun params n_cgs -> Sw_arch.Params.with_cgs params n_cgs) gen_params (int_range 1 4))
           gen_kernel
           (list_size (int_range 1 4) gen_variant)))
    (fun (params, kernel, variants) ->
      List.for_all (flat_equals_reference params kernel) variants)

(* Every registry kernel's default variant, both buffering settings:
   the flat programs equal the compiled reference trees, and the engine
   on them measures exactly what the reference engine measures on the
   trees. *)
let test_registry_flat_equals_reference () =
  let config = Sw_sim.Config.default p in
  List.iter
    (fun (entry : Registry.entry) ->
      let kernel = entry.Registry.build ~scale:0.5 in
      List.iter
        (fun double_buffer ->
          let v = { entry.Registry.variant with Kernel.double_buffer } in
          let label = Printf.sprintf "%s db%b" entry.Registry.name double_buffer in
          Alcotest.(check bool) (label ^ ": flat = compiled reference") true
            (flat_equals_reference p kernel v);
          match (Lower.lower p kernel v, Lower_ref.lower p kernel v) with
          | Ok l, Ok items ->
              Alcotest.(check bool) (label ^ ": metrics bit-identical") true
                (Sw_sim.Engine.run config l.Lowered.programs = Sw_sim.Engine_ref.run config items)
          | _ -> ())
        [ false; true ])
    Registry.all

(* Clearing the caches drops both halves; the recomputed summary is
   unchanged. *)
let test_clear_cache_keeps_results () =
  let entry = Registry.find_exn "bfs" in
  let kernel = entry.Registry.build ~scale:0.25 in
  let v = entry.Registry.variant in
  let before = Lower.summarize p kernel v in
  Lower.clear_cache ();
  Alcotest.(check bool) "same after clear" true (before = Lower.summarize p kernel v);
  Alcotest.(check bool) "= reference" true (before = Lower_ref.summarize p kernel v)

(* Cross-layer count invariant: the static summary's logical DMA
   requests (a per-CPE fleet average) times the active CPEs is what the
   simulator executes, and so is the flat programs' DMA row count; for
   kernels without gloads the summary's transactions match the
   simulator's too (gloads add transactions the DMA groups do not
   describe).  The rows' payload is the lowering's total payload, which
   is the simulated payload on kernels without gloads. *)
let test_counts_match_simulator () =
  let config = Sw_sim.Config.default p in
  List.iter
    (fun (entry : Registry.entry) ->
      let kernel = entry.Registry.build ~scale:0.5 in
      List.iter
        (fun (grain, double_buffer) ->
          let v = { entry.Registry.variant with Kernel.grain; double_buffer } in
          match Lower.lower p kernel v with
          | Error _ -> ()
          | Ok lowered ->
              let s = lowered.Lowered.summary in
              let m = Sw_backend.Machine.metrics config lowered in
              let label what =
                Printf.sprintf "%s g%d db%b %s" entry.Registry.name grain double_buffer what
              in
              let fleet f =
                Float.round
                  (float_of_int s.Lowered.active_cpes
                  *. List.fold_left (fun acc g -> acc +. f g) 0.0 s.Lowered.dma_groups)
              in
              Alcotest.(check (float 0.0))
                (label "DMA requests")
                (float_of_int m.Sw_sim.Metrics.dma_requests)
                (fleet (fun g -> g.Lowered.count));
              let programs = lowered.Lowered.programs in
              let rows f = Array.fold_left (fun acc prog -> acc + f prog) 0 programs in
              Alcotest.(check int) (label "flat DMA rows") m.Sw_sim.Metrics.dma_requests
                (rows Sw_isa.Flat.dma_rows);
              Alcotest.(check int) (label "row payload = total payload")
                (Lowered.total_payload_bytes lowered)
                (rows Sw_isa.Flat.payload_bytes);
              if m.Sw_sim.Metrics.gload_requests = 0 then
                Alcotest.(check int) (label "row payload = simulated payload")
                  m.Sw_sim.Metrics.payload_bytes (rows Sw_isa.Flat.payload_bytes);
              if kernel.Kernel.gloads = None && kernel.Kernel.spill_gloads = None then
                Alcotest.(check (float 0.0))
                  (label "DMA transactions")
                  (float_of_int m.Sw_sim.Metrics.transactions)
                  (fleet (fun g -> float_of_int g.Lowered.mrt *. g.Lowered.count)))
        (List.concat_map (fun g -> [ (g, false); (g, true) ]) entry.Registry.grains))
    Registry.all

let tests =
  ( "lower_ref",
    [
      QCheck_alcotest.to_alcotest prop_summary_equals_reference;
      QCheck_alcotest.to_alcotest prop_lower_summary_equals_reference;
      QCheck_alcotest.to_alcotest prop_flat_equals_reference;
      Alcotest.test_case "registry flat = reference" `Quick test_registry_flat_equals_reference;
      Alcotest.test_case "clear_cache keeps results" `Quick test_clear_cache_keeps_results;
      Alcotest.test_case "summary counts = simulator counts" `Quick test_counts_match_simulator;
    ] )
