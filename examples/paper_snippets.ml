(* Compiles the paper's own code snippets (Figs. 1, 3, 5a, 13, 18) through
   the C front end and the full flow.

     dune exec examples/paper_snippets.exe *)

module Frontend = Hlsb_frontend.Frontend
module Style = Hlsb_ctrl.Style
module Pipeline = Core.Pipeline
module Device = Hlsb_device.Device

let fig1 =
  {|
void fig1(stream<int> &in_fifo, stream<int> &out_fifo, int foo[1024], int bar[1024]) {
  int source = in_fifo.read();
  int a[64];
  int b[64];
  for (int i = 0; i < 64; i++) {
#pragma HLS unroll
    a[i] = source + foo[i];
    b[i] = a[i] - bar[i];
  }
  int acc = 0;
  for (int i = 0; i < 64; i++) {
#pragma HLS unroll
    acc = acc + b[i];
  }
  out_fifo.write(acc);
}
|}

let fig3 =
  {|
void fig3(stream<long> &src) {
  long buffer[73728];
  for (int i = 0; i < 73728; i++) {
#pragma HLS pipeline
    buffer[i] = src.read();
  }
}
|}

let fig13 =
  {|
void chain(stream<int> &anchors, stream<int> &scores,
           int max_dist_x, int max_dist_y, int bw, short avg_qspan,
           int prev[64]) {
  for (int t = 0; t < 4096; t++) {
#pragma HLS pipeline
    int curr_x = anchors.read();
    int curr_y = anchors.read();
    int curr_tag = anchors.read();
    int best = -2147483647;
    for (int j = 0; j < 64; j++) {
#pragma HLS unroll
      int dist_x = prev[j].x - curr_x;
      int dist_y = prev[j].y - curr_y;
      int dd = abs(dist_x - dist_y);
      int min_d = min(dist_y, dist_x);
      int log_dd = log2(dd);
      int temp = min(min_d, prev[j].w);
      int dp_score = temp - dd * avg_qspan - log_dd;
      if ((dist_x == 0 || dist_x > max_dist_x) ||
          (dist_y > max_dist_y || dist_y <= 0) ||
          (dd > bw) || (curr_tag != prev[j].tag)) {
        dp_score = -2147483647;
      }
      best = max(best, dp_score);
    }
    scores.write(best);
  }
}
|}

let fig5a =
  {|
void flow_a(stream<int> &inA, stream<int> &outA1, stream<int> &outA2) {
  for (int i = 0; i < 1024; i++) {
#pragma HLS pipeline
    int a = inA.read();
    outA1.write(a >> 16);
    outA2.write(a & 65535);
  }
}

void flow_b(stream<int> &inB, stream<int> &outB1, stream<int> &outB2) {
  for (int i = 0; i < 1024; i++) {
#pragma HLS pipeline
    int b = inB.read();
    outB1.write(b >> 16);
    outB2.write(b & 65535);
  }
}

void top(stream<int> &inA, stream<int> &inB,
         stream<int> &outA1, stream<int> &outA2,
         stream<int> &outB1, stream<int> &outB2) {
#pragma HLS dataflow
  flow_a(inA, outA1, outA2);
  flow_b(inB, outB1, outB2);
}
|}

let fig18 =
  {|
void stream_buffer(stream<long> &in_fifo, stream<long> &out_fifo) {
  long buffer[65536];
  for (int i = 0; i < 65536; i++) {
#pragma HLS pipeline
    buffer[i] = in_fifo.read();
  }
  for (int i = 0; i < 65536; i++) {
#pragma HLS pipeline
    out_fifo.write(buffer[i]);
  }
}
|}

let compile_and_report label src =
  Printf.printf "--- %s ---\n" label;
  match Frontend.design_of_string src with
  | Error e -> Format.printf "frontend error: %a@." Frontend.pp_error e
  | Ok df ->
    let device = Device.ultrascale_plus in
    print_string (Core.Classify.to_string (Core.Classify.analyze ~device df));
    let session = Pipeline.create ~device ~name:label ~build:(fun () -> df) () in
    let orig = Pipeline.run_exn session ~recipe:Style.original in
    let opt = Pipeline.run_exn session ~recipe:Style.optimized in
    Printf.printf "original : %.0f MHz\noptimized: %.0f MHz (%+.0f%%)\n\n"
      orig.Pipeline.fr_fmax_mhz opt.Pipeline.fr_fmax_mhz
      (Pipeline.improvement_pct ~orig ~opt)

let () =
  compile_and_report "Fig. 1 (loop unrolling)" fig1;
  compile_and_report "Fig. 3 (large array)" fig3;
  compile_and_report "Fig. 13 (genome chaining)" fig13;
  compile_and_report "Fig. 5a (dataflow sync)" fig5a;
  compile_and_report "Fig. 18 (stream buffer)" fig18
