(* C front-end tests: lexing, parsing, elaboration, and the end-to-end
   property that the paper's snippets produce the broadcast structures the
   paper says they do. *)

open Hlsb_ir
module Frontend = Hlsb_frontend.Frontend
module Lexer = Hlsb_frontend.Lexer
module Parser = Hlsb_frontend.Parser
module Token = Hlsb_frontend.Token
module Ast = Hlsb_frontend.Ast

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%a" Frontend.pp_error e

let kernel ?name src = ok (Frontend.kernel_of_string ?name src)

(* ---- lexer ---- *)

let test_lex_basic () =
  let toks = Lexer.tokenize "int x = 42; // comment\nx = x + 0x10;" in
  let kinds = List.map (fun t -> t.Token.tok) toks in
  Alcotest.(check bool) "has int kw" true (List.mem Token.Kw_int kinds);
  Alcotest.(check bool) "hex literal" true (List.mem (Token.Int_lit 16L) kinds);
  Alcotest.(check bool) "comment skipped" true
    (not (List.exists (function Token.Ident "comment" -> true | _ -> false) kinds))

let test_lex_pragma () =
  let toks = Lexer.tokenize "#pragma HLS unroll factor=8\nint x;" in
  match (List.hd toks).Token.tok with
  | Token.Pragma p -> Alcotest.(check string) "pragma text" "HLS unroll factor=8" p
  | t -> Alcotest.failf "expected pragma, got %s" (Token.to_string t)

let test_lex_operators () =
  let toks = Lexer.tokenize "a <= b >> 2 != c && d" in
  let kinds = List.map (fun t -> t.Token.tok) toks in
  Alcotest.(check bool) "le" true (List.mem Token.Le kinds);
  Alcotest.(check bool) "shr" true (List.mem Token.Shr kinds);
  Alcotest.(check bool) "ne" true (List.mem Token.Ne kinds);
  Alcotest.(check bool) "andand" true (List.mem Token.And_and kinds)

let test_lex_float () =
  let toks = Lexer.tokenize "1.5 2f" in
  let kinds = List.map (fun t -> t.Token.tok) toks in
  Alcotest.(check bool) "floats" true
    (List.mem (Token.Float_lit 1.5) kinds && List.mem (Token.Float_lit 2.) kinds)

let test_lex_error_line () =
  Alcotest.(check bool) "line numbers" true
    (try ignore (Lexer.tokenize "int x;\nint @;"); false
     with Lexer.Error (_, 2) -> true)

(* ---- parser ---- *)

let parse_expr s = Parser.expr_of_tokens (Lexer.tokenize s)

let test_parse_precedence () =
  (* a + b * c parses as a + (b * c) *)
  match parse_expr "a + b * c" with
  | Ast.Binop (Ast.B_add, Ast.Var "a", Ast.Binop (Ast.B_mul, _, _)) -> ()
  | _ -> Alcotest.fail "precedence wrong"

let test_parse_ternary () =
  match parse_expr "a < b ? a : b" with
  | Ast.Ternary (Ast.Binop (Ast.B_lt, _, _), Ast.Var "a", Ast.Var "b") -> ()
  | _ -> Alcotest.fail "ternary shape"

let test_parse_method_and_field () =
  (match parse_expr "s.read()" with
  | Ast.Method ("s", "read", []) -> ()
  | _ -> Alcotest.fail "method");
  match parse_expr "prev[j].x" with
  | Ast.Field (Ast.Index (Ast.Var "prev", Ast.Var "j"), "x") -> ()
  | _ -> Alcotest.fail "field of index"

let test_parse_program () =
  let p =
    ok
      (Frontend.parse
         "void f(stream<int> &a) { int x = a.read(); a.write(x); }")
  in
  Alcotest.(check int) "one function" 1 (List.length p);
  Alcotest.(check string) "name" "f" (List.hd p).Ast.f_name

let test_parse_error_message () =
  match Frontend.parse "void f( { }" with
  | Error e -> Alcotest.(check bool) "has line" true (e.Frontend.err_line <> None)
  | Ok _ -> Alcotest.fail "should fail"

(* ---- elaboration ---- *)

let test_elab_fig1_broadcast () =
  let k =
    kernel
      {|
void fig1(stream<int> &q, int foo[512]) {
  int source = q.read();
  int acc = 0;
  for (int i = 0; i < 32; i++) {
#pragma HLS unroll
    acc = acc + (source + foo[i]);
  }
  q.write(acc);
}
|}
  in
  let dag = k.Kernel.dag in
  (* the fifo read (source) is consumed by all 32 unrolled adds *)
  let max_bf = ref 0 in
  Dag.iter dag (fun v -> max_bf := max !max_bf (Dag.broadcast_factor dag v));
  Alcotest.(check int) "32-way broadcast" 32 !max_bf

let test_elab_buffer_vs_regs () =
  let k =
    kernel
      {|
void m(stream<int> &q) {
  int small[8];
  int big[4096];
  for (int i = 0; i < 8; i++) {
#pragma HLS unroll
    small[i] = i;
  }
  for (int i = 0; i < 1024; i++) {
#pragma HLS pipeline
    big[i] = q.read() + small[2];
  }
}
|}
  in
  Alcotest.(check int) "one BRAM buffer" 1 (Array.length (Dag.buffers k.Kernel.dag));
  Alcotest.(check int) "buffer depth" 4096
    (Dag.buffer k.Kernel.dag 0).Dag.b_depth

let test_elab_trip_count () =
  let k =
    kernel
      {|
void t(stream<int> &q) {
  for (int i = 0; i < 777; i++) {
#pragma HLS pipeline
    q.write(q.read());
  }
}
|}
  in
  Alcotest.(check int) "trip count from pipelined loop" 777 k.Kernel.trip_count

let test_elab_if_becomes_select () =
  let k =
    kernel
      {|
void s(stream<int> &q) {
  int x = q.read();
  int y = 0;
  if (x > 10) { y = x; } else { y = 10 - x; }
  q.write(y);
}
|}
  in
  let has_select = ref false in
  Dag.iter k.Kernel.dag (fun v ->
    match Dag.kind k.Kernel.dag v with
    | Dag.Operation Op.Select -> has_select := true
    | _ -> ());
  Alcotest.(check bool) "if lowered to select" true !has_select

let test_elab_read_addr_form () =
  let k =
    kernel
      {|
void r(stream<int> &q, stream<int> &out) {
  int a;
  q.read(&a);
  out.write(a + 1);
}
|}
  in
  let reads = ref 0 in
  Dag.iter k.Kernel.dag (fun v ->
    match Dag.kind k.Kernel.dag v with
    | Dag.Fifo_read _ -> incr reads
    | _ -> ());
  Alcotest.(check int) "one read" 1 !reads

let test_elab_const_folding () =
  let k =
    kernel
      {|
void c(stream<int> &q) {
  int acc = 0;
  for (int i = 0; i < 16; i++) {
#pragma HLS unroll
    acc = acc + i * 2;
  }
  q.write(acc);
}
|}
  in
  (* loop-index arithmetic folds away: no Mul nodes in the DAG *)
  let muls = ref 0 in
  Dag.iter k.Kernel.dag (fun v ->
    match Dag.kind k.Kernel.dag v with
    | Dag.Operation Op.Mul -> incr muls
    | _ -> ());
  Alcotest.(check int) "index math folded" 0 !muls

let test_elab_float_ops () =
  let k =
    kernel
      {|
void f(stream<float> &q) {
  float a = q.read();
  float b = q.read();
  q.write(a * b + 1.5);
}
|}
  in
  let fmuls = ref 0 and fadds = ref 0 in
  Dag.iter k.Kernel.dag (fun v ->
    match Dag.kind k.Kernel.dag v with
    | Dag.Operation Op.Fmul -> incr fmuls
    | Dag.Operation Op.Fadd -> incr fadds
    | _ -> ());
  Alcotest.(check int) "fmul" 1 !fmuls;
  Alcotest.(check int) "fadd" 1 !fadds

let test_elab_errors () =
  let fails src =
    match Frontend.kernel_of_string src with
    | Error _ -> true
    | Ok _ -> false
  in
  Alcotest.(check bool) "undeclared var" true
    (fails "void f(stream<int> &q) { q.write(nope); }");
  Alcotest.(check bool) "store in branch" true
    (fails
       {|
void f(stream<int> &q) {
  int big[4096];
  int x = q.read();
  if (x > 0) { big[0] = x; }
}
|});
  Alcotest.(check bool) "unknown function" true
    (fails "void f(stream<int> &q) { q.write(mystery(1)); }")

(* ---- dataflow regions ---- *)

let fig5a_src =
  {|
void fa(stream<int> &i1, stream<int> &o1) {
  for (int i = 0; i < 64; i++) {
#pragma HLS pipeline
    o1.write(i1.read() + 1);
  }
}
void fb(stream<int> &i2, stream<int> &o2) {
  for (int i = 0; i < 64; i++) {
#pragma HLS pipeline
    o2.write(i2.read() + 2);
  }
}
void top(stream<int> &a, stream<int> &b, stream<int> &x, stream<int> &y) {
#pragma HLS dataflow
  fa(a, x);
  fb(b, y);
}
|}

let test_dataflow_region () =
  let df = ok (Frontend.design_of_string fig5a_src) in
  Alcotest.(check int) "two processes" 2 (Dataflow.n_processes df);
  Alcotest.(check int) "four channels" 4 (Dataflow.n_channels df);
  (* the front end glues everything into one sync group, as the paper
     complains *)
  (match Dataflow.sync_groups df with
  | [ g ] -> Alcotest.(check int) "glued" 2 (List.length g)
  | _ -> Alcotest.fail "one sync group expected");
  (* and pruning splits the two independent flows *)
  let pruned = Hlsb_ctrl.Sync.split_independent df in
  Alcotest.(check int) "pruned into two" 2
    (List.length (Dataflow.sync_groups pruned))

let test_dataflow_compiles () =
  let df = ok (Frontend.design_of_string fig5a_src) in
  let r =
    Core.Pipeline.run_exn ~recipe:Hlsb_ctrl.Style.optimized
      (Core.Pipeline.create ~device:Hlsb_device.Device.ultrascale_plus
         ~name:"fig5a" ~build:(fun () -> df) ())
  in
  Alcotest.(check bool) "sane fmax" true (r.Core.Pipeline.fr_fmax_mhz > 100.)

let test_single_kernel_design () =
  let df =
    ok
      (Frontend.design_of_string
         "void k(stream<int> &q, stream<int> &o) { o.write(q.read()); }")
  in
  Alcotest.(check int) "one process" 1 (Dataflow.n_processes df);
  Alcotest.(check int) "two channels" 2 (Dataflow.n_channels df)

let suite =
  [
    Alcotest.test_case "lex basic" `Quick test_lex_basic;
    Alcotest.test_case "lex pragma" `Quick test_lex_pragma;
    Alcotest.test_case "lex operators" `Quick test_lex_operators;
    Alcotest.test_case "lex float" `Quick test_lex_float;
    Alcotest.test_case "lex error line" `Quick test_lex_error_line;
    Alcotest.test_case "parse precedence" `Quick test_parse_precedence;
    Alcotest.test_case "parse ternary" `Quick test_parse_ternary;
    Alcotest.test_case "parse method/field" `Quick test_parse_method_and_field;
    Alcotest.test_case "parse program" `Quick test_parse_program;
    Alcotest.test_case "parse error message" `Quick test_parse_error_message;
    Alcotest.test_case "elab fig1 broadcast" `Quick test_elab_fig1_broadcast;
    Alcotest.test_case "elab buffer vs regs" `Quick test_elab_buffer_vs_regs;
    Alcotest.test_case "elab trip count" `Quick test_elab_trip_count;
    Alcotest.test_case "elab if->select" `Quick test_elab_if_becomes_select;
    Alcotest.test_case "elab read(&x)" `Quick test_elab_read_addr_form;
    Alcotest.test_case "elab const folding" `Quick test_elab_const_folding;
    Alcotest.test_case "elab float ops" `Quick test_elab_float_ops;
    Alcotest.test_case "elab errors" `Quick test_elab_errors;
    Alcotest.test_case "dataflow region" `Quick test_dataflow_region;
    Alcotest.test_case "dataflow compiles" `Quick test_dataflow_compiles;
    Alcotest.test_case "single-kernel design" `Quick test_single_kernel_design;
  ]
