(* Tests for dsm_lang: the §5.2 pre-compiler level — validation, lowering
   with/without wrappers, interpreter semantics, and agreement with the
   library-level detector. *)

open Dsm_sim
open Dsm_lang
module Machine = Dsm_rdma.Machine
module Detector = Dsm_core.Detector
module Config = Dsm_core.Config
module Report = Dsm_core.Report

let seqs l = Ast.Seq l

(* Each process stores MINE into its own slot, barrier, then sums the
   whole array into slot of a result array. *)
let sum_program =
  {
    Ast.shared =
      [ { Ast.name = "slots"; length = 4 }; { Ast.name = "result"; length = 1 } ];
    body =
      seqs
        [
          Ast.Store ("slots", Ast.Mine, Ast.Binop (Ast.Add, Ast.Mine, Ast.Int 1));
          Ast.Barrier;
          Ast.If
            ( Ast.Binop (Ast.Eq, Ast.Mine, Ast.Int 0),
              seqs
                [
                  Ast.Let ("acc", Ast.Int 0);
                  Ast.For
                    ( "i",
                      Ast.Int 0,
                      Ast.Binop (Ast.Sub, Ast.Procs, Ast.Int 1),
                      Ast.Let
                        ( "acc",
                          Ast.Binop (Ast.Add, Ast.Var "acc", Ast.Load ("slots", Ast.Var "i"))
                        ) );
                  Ast.Store ("result", Ast.Int 0, Ast.Var "acc");
                ],
              Ast.Skip );
        ];
  }

(* Every process writes the same word with no synchronization. *)
let racy_program =
  {
    Ast.shared = [ { Ast.name = "cell"; length = 1 } ];
    body =
      seqs
        [
          Ast.Compute (Ast.Binop (Ast.Mul, Ast.Mine, Ast.Int 7));
          Ast.Store ("cell", Ast.Int 0, Ast.Mine);
        ];
  }

let run ?(n = 4) ~instrument prog =
  let sim = Engine.create () in
  let m = Machine.create sim ~n ~latency:(Dsm_net.Latency.Constant 1.0) () in
  let d = Detector.create m () in
  let ir = Compile.lower_exn ~instrument prog in
  let rt = Exec.setup m ~detector:d ir in
  (match Machine.run m with
  | Engine.Completed -> ()
  | Engine.Blocked k -> Alcotest.failf "blocked (%d)" k
  | _ -> Alcotest.fail "did not complete");
  (rt, d)

(* ---------- parser ---------- *)

let source_sum =
  {|
# fill my slot, then rank 0 folds
shared slots[4]
shared out[1]

slots[MINE] := MINE + 1;
barrier;
if MINE == 0 then
  acc := 0;
  for i = 0 to PROCS - 1 do
    acc := acc + slots[i]
  done;
  out[0] := acc
end
|}

let test_parse_roundtrip_runs () =
  let prog = Parser.parse_exn source_sum in
  let rt, d = run ~instrument:true prog in
  Alcotest.(check (array int)) "parsed program computes" [| 10 |]
    (Exec.array_contents rt "out");
  Alcotest.(check int) "clean" 0 (Report.count (Detector.report d))

let test_parse_precedence () =
  let prog = Parser.parse_exn "x := 1 + 2 * 3 - 4 / 2" in
  match prog.Ast.body with
  | Ast.Let ("x", e) ->
      (* (1 + (2*3)) - (4/2) = 5 under the usual precedence *)
      let rec eval = function
        | Ast.Int i -> i
        | Ast.Binop (Ast.Add, a, b) -> eval a + eval b
        | Ast.Binop (Ast.Sub, a, b) -> eval a - eval b
        | Ast.Binop (Ast.Mul, a, b) -> eval a * eval b
        | Ast.Binop (Ast.Div, a, b) -> eval a / eval b
        | _ -> Alcotest.fail "unexpected node"
      in
      Alcotest.(check int) "precedence" 5 (eval e)
  | _ -> Alcotest.fail "expected a single assignment"

let test_parse_parens_and_comparison () =
  let prog = Parser.parse_exn "x := (1 + 2) * 3; y := x < 10" in
  match prog.Ast.body with
  | Ast.Seq [ Ast.Let ("x", Ast.Binop (Ast.Mul, _, _)); Ast.Let ("y", Ast.Binop (Ast.Lt, _, _)) ]
    ->
      ()
  | _ -> Alcotest.fail "unexpected shape"

let test_parse_fetch_add () =
  let prog = Parser.parse_exn "shared c[1]
c[0] +>= 2" in
  match prog.Ast.body with
  | Ast.Fetch_add ("c", Ast.Int 0, Ast.Int 2) -> ()
  | _ -> Alcotest.fail "expected fetch-add"

let test_parse_errors_carry_line () =
  (match Parser.parse "x := 1;
y := @" with
  | Error msg ->
      Alcotest.(check bool) "line 2" true (Test_util.contains msg "line 2")
  | Ok _ -> Alcotest.fail "expected error");
  match Parser.parse "shared a[1]
b[0] := 1" with
  | Error msg ->
      Alcotest.(check bool) "validation runs too" true
        (Test_util.contains msg "undeclared")
  | Ok _ -> Alcotest.fail "expected validation error"

(* A literal past [max_int] is a parse error with its line, not an
   escaping [Failure]. *)
let test_parse_oversized_literal () =
  match Parser.parse "x := 1;\nshared a[99999999999999999999]" with
  | Error msg ->
      Alcotest.(check bool) "line 2" true (Test_util.contains msg "line 2");
      Alcotest.(check bool) "names the literal" true
        (Test_util.contains msg "99999999999999999999")
  | Ok _ -> Alcotest.fail "expected error"
  | exception e -> Alcotest.failf "escaped: %s" (Printexc.to_string e)

let test_parse_empty_program () =
  match Parser.parse "shared a[4]" with
  | Ok { Ast.body = Ast.Skip; _ } -> ()
  | Ok _ -> Alcotest.fail "expected skip body"
  | Error e -> Alcotest.fail e

(* Round trip: any validated program prints as concrete syntax that
   parses back to an equal AST. *)
let gen_program =
  let open QCheck.Gen in
  let arrays = [ ("a", 4); ("b", 2) ] in
  let gen_ident = oneofl [ "x"; "y"; "z" ] in
  let rec gen_expr env depth =
    let leaves =
      [ (3, map (fun i -> Ast.Int i) (int_bound 9));
        (1, return Ast.Mine);
        (1, return Ast.Procs) ]
      @ (if env = [] then [] else [ (2, map (fun v -> Ast.Var v) (oneofl env)) ])
    in
    if depth = 0 then frequency leaves
    else
      frequency
        (leaves
        @ [
            ( 2,
              map2
                (fun (name, _) idx -> Ast.Load (name, idx))
                (oneofl arrays)
                (gen_expr env (depth - 1)) );
            ( 2,
              map3
                (fun op l r -> Ast.Binop (op, l, r))
                (oneofl [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Eq; Ast.Lt ])
                (gen_expr env (depth - 1))
                (gen_expr env (depth - 1)) );
          ])
  in
  (* Returns (stmt, env'): newly defined variables stay in scope. *)
  let rec gen_stmt env depth =
    let base =
      [
        (1, return (Ast.Skip, env));
        (1, return (Ast.Barrier, env));
        ( 2,
          gen_ident >>= fun v ->
          gen_expr env 1 >|= fun e -> (Ast.Let (v, e), v :: env) );
        ( 2,
          oneofl arrays >>= fun (name, _) ->
          gen_expr env 1 >>= fun idx ->
          gen_expr env 1 >|= fun e -> (Ast.Store (name, idx, e), env) );
        ( 1,
          oneofl arrays >>= fun (name, _) ->
          gen_expr env 1 >>= fun idx ->
          gen_expr env 1 >|= fun e -> (Ast.Fetch_add (name, idx, e), env) );
        (1, gen_expr env 1 >|= fun e -> (Ast.Compute e, env));
      ]
    in
    let nested =
      if depth = 0 then []
      else
        [
          ( 1,
            gen_expr env 1 >>= fun c ->
            gen_stmt env (depth - 1) >>= fun (a, _) ->
            gen_stmt env (depth - 1) >|= fun (b, _) -> (Ast.If (c, a, b), env)
          );
          ( 1,
            gen_ident >>= fun v ->
            gen_expr env 1 >>= fun lo ->
            gen_expr env 1 >>= fun hi ->
            gen_stmt (v :: env) (depth - 1) >|= fun (body, _) ->
            (Ast.For (v, lo, hi, body), env) );
          ( 1,
            (* never executed: the property only parses and prints *)
            gen_expr env 1 >>= fun c ->
            gen_stmt env (depth - 1) >|= fun (body, _) ->
            (Ast.While (c, body), env) );
        ]
    in
    frequency (base @ nested)
  in
  let gen_body =
    int_range 2 5 >>= fun len ->
    let rec go env k acc =
      if k = 0 then return (Ast.Seq (List.rev acc))
      else
        gen_stmt env 1 >>= fun (s, env') -> go env' (k - 1) (s :: acc)
    in
    go [] len []
  in
  map
    (fun body ->
      {
        Ast.shared =
          [ { Ast.name = "a"; length = 4 }; { Ast.name = "b"; length = 2 } ];
        body;
      })
    gen_body

let prop_parse_print_roundtrip =
  QCheck.Test.make ~name:"parse (print p) = p" ~count:200
    (QCheck.make
       ~print:(fun p -> Format.asprintf "%a" Ast.pp_program p)
       gen_program)
    (fun prog ->
      match Ast.validate prog with
      | Error _ -> QCheck.assume_fail ()
      | Ok () -> (
          let rendered = Format.asprintf "%a" Ast.pp_program prog in
          match Parser.parse rendered with
          | Ok prog' -> prog' = prog
          | Error msg ->
              QCheck.Test.fail_reportf "reparse failed: %s@.%s" msg rendered))

(* ---------- validation ---------- *)

let test_validate_accepts_good_program () =
  Alcotest.(check (result unit string)) "ok" (Ok ()) (Ast.validate sum_program)

let expect_error prog fragment =
  match Ast.validate prog with
  | Ok () -> Alcotest.fail "expected a validation error"
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "mentions %S" fragment)
        true
        (Test_util.contains msg fragment)

let test_validate_rejects_undeclared_array () =
  expect_error
    { Ast.shared = []; body = Ast.Store ("ghost", Ast.Int 0, Ast.Int 1) }
    "undeclared shared array"

let test_validate_rejects_duplicate_array () =
  expect_error
    {
      Ast.shared =
        [ { Ast.name = "a"; length = 1 }; { Ast.name = "a"; length = 2 } ];
      body = Ast.Skip;
    }
    "declared twice"

let test_validate_rejects_undefined_variable () =
  expect_error
    { Ast.shared = []; body = Ast.Let ("x", Ast.Var "y") }
    "undefined private variable"

let test_validate_accepts_loop_index () =
  let prog =
    {
      Ast.shared = [];
      body = Ast.For ("i", Ast.Int 0, Ast.Int 3, Ast.Let ("x", Ast.Var "i"));
    }
  in
  Alcotest.(check (result unit string)) "loop index defined" (Ok ())
    (Ast.validate prog)

(* ---------- lowering ---------- *)

let test_lowering_counts_wrappers () =
  let instrumented = Compile.lower_exn ~instrument:true sum_program in
  let plain = Compile.lower_exn ~instrument:false sum_program in
  (* 2 stores + 1 load inside the fold *)
  Alcotest.(check int) "wrappers inserted" 3 (Ir.checked_accesses instrumented);
  Alcotest.(check int) "none raw" 0 (Ir.raw_accesses instrumented);
  Alcotest.(check int) "plain has no wrappers" 0 (Ir.checked_accesses plain);
  Alcotest.(check int) "all raw" 3 (Ir.raw_accesses plain)

let test_lower_rejects_invalid () =
  Alcotest.(check bool) "error" true
    (match
       Compile.lower ~instrument:true
         { Ast.shared = []; body = Ast.Store ("ghost", Ast.Int 0, Ast.Int 1) }
     with
    | Error _ -> true
    | Ok _ -> false)

(* ---------- execution ---------- *)

let test_sum_program_computes () =
  let rt, d = run ~instrument:true sum_program in
  Alcotest.(check (array int)) "slots" [| 1; 2; 3; 4 |]
    (Exec.array_contents rt "slots");
  Alcotest.(check (array int)) "sum" [| 10 |] (Exec.array_contents rt "result");
  Alcotest.(check int) "barrier-ordered: no races" 0
    (Report.count (Detector.report d))

let test_instrumented_program_detects_race () =
  let _, d = run ~instrument:true racy_program in
  Alcotest.(check bool) "wrappers signal" true
    (Report.count (Detector.report d) > 0)

let test_uninstrumented_program_races_invisibly () =
  let rt, d = run ~instrument:false racy_program in
  Alcotest.(check int) "no wrappers, no signals" 0
    (Report.count (Detector.report d));
  (* ...but the race is still there: some process's value won. *)
  let v = (Exec.array_contents rt "cell").(0) in
  Alcotest.(check bool) "someone wrote" true (v >= 0 && v <= 3)

let test_both_levels_agree_with_library () =
  (* The pre-compiler level and the library level must produce the same
     verdict on the same program. *)
  let _, d = run ~instrument:true racy_program in
  let precompiler = Report.count (Detector.report d) in
  (* Library level: hand-written equivalent of racy_program. *)
  let sim = Engine.create () in
  let m = Machine.create sim ~n:4 ~latency:(Dsm_net.Latency.Constant 1.0) () in
  let d' = Detector.create m () in
  let cell = Detector.alloc_shared d' ~pid:0 ~name:"cell" ~len:1 () in
  Machine.spawn_all m (fun p ->
      let pid = Machine.pid p in
      Machine.compute p (float_of_int (pid * 7));
      let buf = Machine.alloc_private m ~pid ~len:1 () in
      Detector.put d' p ~src:buf ~dst:cell);
  ignore (Machine.run m);
  Alcotest.(check int) "same verdict at both levels" precompiler
    (Report.count (Detector.report d'))

let test_while_loop_polls () =
  let prog =
    Parser.parse_exn
      "shared flag[1]\nshared data[1]\nif MINE == 0 then compute 25; data[0] := 7; flag[0] := 1 else s := 0; while s == 0 do compute 2; s := flag[0] done; out := data[0] end"
  in
  let rt, d = run ~n:2 ~instrument:true prog in
  ignore rt;
  (* the flag polling races; the data read is ordered through the flag *)
  let flagged =
    List.map
      (fun r -> r.Report.granule.Dsm_memory.Addr.base.offset)
      (Report.races (Detector.report d))
  in
  Alcotest.(check bool) "some flag signals" true (flagged <> []);
  List.iter
    (fun off -> Alcotest.(check int) "signals on the flag only" 0 off)
    flagged

let test_runtime_bounds_error () =
  let prog =
    {
      Ast.shared = [ { Ast.name = "a"; length = 2 } ];
      body = Ast.Store ("a", Ast.Int 5, Ast.Int 1);
    }
  in
  let sim = Engine.create () in
  let m = Machine.create sim ~n:2 () in
  let ir = Compile.lower_exn ~instrument:false prog in
  ignore (Exec.setup m ir);
  match Machine.run m with
  | exception Engine.Process_failure (_, Exec.Runtime_error msg) ->
      Alcotest.(check bool) "bounds message" true
        (Test_util.contains msg "out of bounds")
  | _ -> Alcotest.fail "expected a runtime error"

let test_checked_without_detector_fails () =
  let sim = Engine.create () in
  let m = Machine.create sim ~n:2 () in
  let ir = Compile.lower_exn ~instrument:true racy_program in
  ignore (Exec.setup m ir);
  match Machine.run m with
  | exception Engine.Process_failure (_, Exec.Runtime_error msg) ->
      Alcotest.(check bool) "explains" true
        (Test_util.contains msg "without a detector")
  | _ -> Alcotest.fail "expected a runtime error"

let () =
  Alcotest.run "lang"
    [
      ( "parser",
        [
          Alcotest.test_case "roundtrip runs" `Quick test_parse_roundtrip_runs;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "parens + cmp" `Quick test_parse_parens_and_comparison;
          Alcotest.test_case "fetch-add" `Quick test_parse_fetch_add;
          Alcotest.test_case "error lines" `Quick test_parse_errors_carry_line;
          Alcotest.test_case "oversized literal" `Quick
            test_parse_oversized_literal;
          Alcotest.test_case "empty body" `Quick test_parse_empty_program;
          QCheck_alcotest.to_alcotest prop_parse_print_roundtrip;
        ] );
      ( "validate",
        [
          Alcotest.test_case "good program" `Quick test_validate_accepts_good_program;
          Alcotest.test_case "undeclared array" `Quick test_validate_rejects_undeclared_array;
          Alcotest.test_case "duplicate array" `Quick test_validate_rejects_duplicate_array;
          Alcotest.test_case "undefined variable" `Quick test_validate_rejects_undefined_variable;
          Alcotest.test_case "loop index" `Quick test_validate_accepts_loop_index;
        ] );
      ( "lowering",
        [
          Alcotest.test_case "wrapper counts" `Quick test_lowering_counts_wrappers;
          Alcotest.test_case "rejects invalid" `Quick test_lower_rejects_invalid;
        ] );
      ( "execution",
        [
          Alcotest.test_case "sum program" `Quick test_sum_program_computes;
          Alcotest.test_case "instrumented detects" `Quick test_instrumented_program_detects_race;
          Alcotest.test_case "uninstrumented blind" `Quick test_uninstrumented_program_races_invisibly;
          Alcotest.test_case "levels agree" `Quick test_both_levels_agree_with_library;
          Alcotest.test_case "while polling" `Quick test_while_loop_polls;
          Alcotest.test_case "bounds error" `Quick test_runtime_bounds_error;
          Alcotest.test_case "missing detector" `Quick test_checked_without_detector_fails;
        ] );
    ]
