open Sw_isa
open Sw_arch

let p = Params.default

let fadd dst srcs = Instr.make Instr.Fadd ~dst srcs

let sample_program =
  [|
    Program.Dma_issue
      {
        dir = Program.Get;
        accesses =
          [
            Mem_req.contiguous ~addr:0x100 ~bytes:2048;
            Mem_req.strided ~addr:0x4000 ~row_bytes:128 ~stride:512 ~rows:4;
          ];
        tag = 0;
      };
    Program.Dma_wait 0;
    Program.Compute
      {
        block = [| fadd 1 [ 0; 0 ]; Instr.make Instr.Spm_store [ 2; 1 ] |];
        trips = 128;
      };
    Program.Gload { addr = 0x10; bytes = 8 };
    Program.Repeat
      {
        trips = 4;
        body =
          [|
            Program.Gstore { addr = 0x20; bytes = 8 };
            Program.Compute { block = [| Instr.make Instr.Ialu ~dst:3 [] |]; trips = 2 };
          |];
      };
    Program.Dma_issue
      { dir = Program.Put; accesses = [ Mem_req.contiguous ~addr:0x8000 ~bytes:512 ]; tag = 1 };
    Program.Dma_wait_all;
  |]

let test_roundtrip () =
  let text = Asm.render_program sample_program in
  match Asm.parse_program text with
  | Ok parsed -> Alcotest.(check bool) "roundtrip" true (parsed = sample_program)
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_roundtrip_annotated () =
  (* annotations must parse away cleanly *)
  let text = Asm.render_program ~annotate:p sample_program in
  match Asm.parse_program text with
  | Ok parsed -> Alcotest.(check bool) "annotated roundtrip" true (parsed = sample_program)
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_annotations_present () =
  let text = Asm.render_program ~annotate:p sample_program in
  Alcotest.(check bool) "issue cycles rendered" true
    (let found = ref false in
     String.iteri
       (fun i _ ->
         if i + 7 <= String.length text && String.sub text i 7 = "; issue" then found := true)
       text;
     !found);
  Alcotest.(check bool) "ILP summary rendered" true
    (let found = ref false in
     String.iteri
       (fun i _ ->
         if i + 7 <= String.length text && String.sub text i 7 = "avg ILP" then found := true)
       text;
     !found)

let test_parse_block () =
  let src = "r1 <- fadd r0, r0\nspm_st r2, r1\n; a comment line\nr3 <- fmadd r1, r1, r0\n" in
  match Asm.parse_block src with
  | Ok block ->
      Alcotest.(check int) "3 instructions" 3 (Array.length block);
      Alcotest.(check bool) "first is fadd" true (block.(0).Instr.klass = Instr.Fadd);
      Alcotest.(check bool) "store has no dst" true (block.(1).Instr.dst = None)
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let expect_error input fragment =
  match Asm.parse_program input with
  | Ok _ -> Alcotest.failf "expected a parse error mentioning %S" fragment
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error %S mentions %S" msg fragment)
        true
        (let flen = String.length fragment in
         let found = ref false in
         String.iteri
           (fun i _ -> if i + flen <= String.length msg && String.sub msg i flen = fragment then found := true)
           msg;
         !found)

let test_parse_errors () =
  expect_error "dma.wait" "unrecognized";
  expect_error "compute trips=2 {\n r1 <- bogus r0\n}" "unknown instruction";
  expect_error "repeat 3 {\n gload addr=0x0 bytes=8\n" "missing '}'";
  expect_error "}" "unexpected '}'";
  expect_error "dma.get tag=0" "no transfers";
  expect_error "gload addr=zz bytes=8" "bad integer"

let test_hex_addresses () =
  match Asm.parse_program "gload addr=0x1f bytes=8\n" with
  | Ok [| Program.Gload { addr = 0x1f; bytes = 8 } |] -> ()
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_lowered_program_roundtrip () =
  (* a real lowered kernel's program must survive the round trip *)
  let e = Sw_workloads.Registry.find_exn "hotspot" in
  let prog =
    (Result.get_ok
       (Sw_swacc.Lower_ref.lower p (e.Sw_workloads.Registry.build ~scale:0.25)
          e.Sw_workloads.Registry.variant)).(0)
  in
  match Asm.parse_program (Asm.render_program prog) with
  | Ok parsed -> Alcotest.(check bool) "identical" true (parsed = prog)
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let gen_program =
  let open QCheck.Gen in
  let gen_instr =
    let* k = int_range 0 4 in
    let klass =
      match k with 0 -> Instr.Fadd | 1 -> Instr.Fmul | 2 -> Instr.Ialu | 3 -> Instr.Spm_load | _ -> Instr.Fmadd
    in
    let* dst = int_range 0 9 in
    let* s1 = int_range 0 9 in
    let* s2 = int_range 0 9 in
    return (Instr.make klass ~dst [ s1; s2 ])
  in
  let gen_leaf =
    frequency
      [
        ( 3,
          let* bytes = int_range 1 4096 in
          let* addr = int_range 0 65536 in
          let* tag = int_range 0 3 in
          return
            (Program.Dma_issue
               { dir = Program.Get; accesses = [ Mem_req.contiguous ~addr ~bytes ]; tag }) );
        (2, let* tag = int_range 0 3 in return (Program.Dma_wait tag));
        (1, return Program.Dma_wait_all);
        ( 2,
          let* addr = int_range 0 65536 in
          return (Program.Gload { addr; bytes = 8 }) );
        ( 3,
          let* n = int_range 1 5 in
          let* instrs = list_repeat n gen_instr in
          let* trips = int_range 1 100 in
          return (Program.Compute { block = Array.of_list instrs; trips }) );
      ]
  in
  let* n = int_range 1 12 in
  let* leaves = list_repeat n gen_leaf in
  let* wrap = bool in
  let body = Array.of_list leaves in
  return (if wrap then [| Program.Repeat { trips = 3; body } |] else body)

let prop_roundtrip =
  QCheck.Test.make ~name:"render/parse roundtrip" ~count:200 (QCheck.make gen_program)
    (fun prog ->
      match Asm.parse_program (Asm.render_program prog) with
      | Ok parsed -> parsed = prog
      | Error _ -> false)

let tests =
  ( "asm",
    [
      Alcotest.test_case "roundtrip" `Quick test_roundtrip;
      Alcotest.test_case "annotated roundtrip" `Quick test_roundtrip_annotated;
      Alcotest.test_case "annotations present" `Quick test_annotations_present;
      Alcotest.test_case "parse block" `Quick test_parse_block;
      Alcotest.test_case "parse errors" `Quick test_parse_errors;
      Alcotest.test_case "hex addresses" `Quick test_hex_addresses;
      Alcotest.test_case "lowered program roundtrip" `Quick test_lowered_program_roundtrip;
      QCheck_alcotest.to_alcotest prop_roundtrip;
    ] )
