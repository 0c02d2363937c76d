(* End-to-end paradigm engine: functional correctness of every paradigm on
   every test-scale workload, and the performance shapes the paper's
   evaluation establishes. *)

module E = Infinity_stream.Engine
module R = Infinity_stream.Report
module W = Infinity_stream.Workload
module Cat = Infs_workloads.Catalog

let functional = { E.default_options with E.functional = true }

let run_checked p w =
  match E.run ~options:functional p w with
  | Error e -> Alcotest.failf "%s on %s: %s" (E.paradigm_to_string p) w.W.wname e
  | Ok r -> (
    match r.R.correctness with
    | `Checked err ->
      if err > 1e-3 then
        Alcotest.failf "%s on %s: max error %.2e" (E.paradigm_to_string p)
          w.W.wname err;
      r
    | `Skipped -> Alcotest.fail "expected a correctness check")

(* ---- paradigm-agreement matrix ----

   Every paradigm must agree with the golden interpreter bit-exactly: all
   executions — vectorized in-core, near-memory streams, bit-serial
   in-memory — model the same IEEE fp32 arithmetic. The only tolerated
   divergence is e-graph reassociation on the In-L3 path for the kernels
   below, where rewriting the reduction tree reorders fp32 additions by
   design; there the error is pinned to <=2 ulp AND must vanish with the
   optimizer off, so any real cost/value-model bug still fails. *)

let reassoc_allowlist = [ "stencil1d"; "stencil2d"; "conv2d" ]

let ulp_tolerated name p =
  p = E.In_l3
  && List.exists
       (fun pre ->
         String.length name >= String.length pre
         && String.sub name 0 (String.length pre) = pre)
       reassoc_allowlist

let check_agreement name p w =
  match E.run ~options:functional p w with
  | Error e -> Alcotest.failf "%s on %s: %s" (E.paradigm_to_string p) name e
  | Ok r -> (
    match r.R.correctness with
    | `Skipped -> Alcotest.fail "expected a correctness check"
    | `Checked err ->
      if ulp_tolerated name p then begin
        if err > 1e-6 then
          Alcotest.failf "%s on %s: reassociation error %.3e above 2 ulp"
            (E.paradigm_to_string p) name err;
        (* the divergence must be exactly the e-graph's reassociation:
           with the optimizer off the values are bit-identical *)
        let r0 =
          E.run_exn ~options:{ functional with E.optimize = false } p w
        in
        match r0.R.correctness with
        | `Checked 0.0 -> ()
        | `Checked e0 ->
          Alcotest.failf "%s on %s: optimize=false should be exact, got %.3e"
            (E.paradigm_to_string p) name e0
        | `Skipped -> Alcotest.fail "expected a correctness check"
      end
      else if err <> 0.0 then
        Alcotest.failf "%s on %s: expected bit-exact agreement, err %.3e"
          (E.paradigm_to_string p) name err)

let agreement_matrix =
  Cat.all_variants (Cat.test_scale ())
  @ [
      ("vec_add", Infs_workloads.Micro.vec_add ~n:16_384);
      ("array_sum", Infs_workloads.Micro.array_sum ~n:16_384);
      ("pointnet/tiny", Infs_workloads.Pointnet.tiny ());
    ]

(* one test per (workload, paradigm) pair *)
let correctness_tests =
  List.concat_map
    (fun (name, w) ->
      List.map
        (fun p ->
          ( Printf.sprintf "agree: %s [%s]" name (E.paradigm_to_string p),
            `Quick,
            fun () -> check_agreement name p w ))
        E.all_paradigms)
    agreement_matrix

let test_pointnet_tiny_all_paradigms () =
  let w = Infs_workloads.Pointnet.tiny () in
  List.iter (fun p -> ignore (run_checked p w)) [ E.Base; E.Near_l3; E.Inf_s ]

(* ---- performance-shape assertions (the paper's qualitative claims) ---- *)

let perf = E.default_options

let cycles ?(options = perf) p w = (E.run_exn ~options p w).R.cycles

let test_fig2_crossover () =
  (* Fig 2: with data resident and transposed, In-L3 wins big at 4M but the
     bit-serial latency cannot be amortized at small sizes. *)
  let options = { perf with E.warm_data = true; pre_transposed = true; charge_jit = false } in
  let big = Infs_workloads.Micro.vec_add ~n:4_194_304 in
  let in_l3 = cycles ~options E.In_l3 big in
  let near = cycles ~options E.Near_l3 big in
  Alcotest.(check bool)
    (Printf.sprintf "In-L3 >=8x Near-L3 at 4M (got %.1fx)" (near /. in_l3))
    true
    (near /. in_l3 >= 8.0);
  let small = Infs_workloads.Micro.vec_add ~n:16_384 in
  let in_small = cycles ~options E.In_l3 small in
  let near_small = cycles ~options E.Near_l3 small in
  Alcotest.(check bool) "advantage shrinks at 16k" true
    (near_small /. in_small < near /. in_l3)

let test_inf_s_beats_near_on_stencil () =
  let w = Infs_workloads.Stencil.stencil2d ~iters:10 ~n:2048 in
  let infs = cycles E.Inf_s w in
  let near = cycles E.Near_l3 w in
  let base = cycles E.Base w in
  Alcotest.(check bool) "Inf-S beats Near-L3" true (infs < near);
  Alcotest.(check bool) "Inf-S beats Base" true (infs < base)

let test_mm_dataflow_preference () =
  (* Fig 15: in-memory prefers the outer product; the baseline prefers the
     (tiled) inner product. *)
  let mm_in = Infs_workloads.Mm.mm_inner ~n:2048 in
  let mm_out = Infs_workloads.Mm.mm_outer ~n:2048 in
  Alcotest.(check bool) "Inf-S: outer < inner" true
    (cycles E.Inf_s mm_out < cycles E.Inf_s mm_in);
  Alcotest.(check bool) "Base: inner < outer" true
    (cycles E.Base mm_in < cycles E.Base mm_out)

let test_nojit_no_slower () =
  (* at paper scale both configurations offload the same regions, so
     removing the JIT charge can only help (Fig 11's Inf-S-noJIT) *)
  let w = Infs_workloads.Gauss.gauss_elim ~n:2048 in
  Alcotest.(check bool) "noJIT <= JIT" true
    (cycles E.Inf_s_nojit w <= cycles E.Inf_s w)

let test_traffic_reduction () =
  (* Fig 12: Inf-S removes most NoC traffic relative to Base. *)
  let w = Infs_workloads.Stencil.stencil2d ~iters:10 ~n:2048 in
  let bh r = List.fold_left (fun a (_, v) -> a +. v) 0.0 r.R.noc_byte_hops in
  let base = E.run_exn E.Base w in
  let infs = E.run_exn E.Inf_s w in
  Alcotest.(check bool) "traffic reduced by >60%" true
    (bh infs < 0.4 *. bh base);
  Alcotest.(check bool) "in-memory moves data intra-tile instead" true
    (List.assoc "intra-tile" infs.R.local_bytes > 0.0)

let test_energy_efficiency_ordering () =
  (* Fig 18 shape: Inf-S more energy-efficient than Near-L3 than Base. *)
  let w = Infs_workloads.Stencil.stencil2d ~iters:10 ~n:2048 in
  let base = E.run_exn E.Base w in
  let near = E.run_exn E.Near_l3 w in
  let infs = E.run_exn E.Inf_s w in
  Alcotest.(check bool) "Inf-S beats Near-L3 energy" true
    (R.energy_efficiency ~baseline:base infs
    > R.energy_efficiency ~baseline:base near);
  Alcotest.(check bool) "Near-L3 beats Base energy" true
    (R.energy_efficiency ~baseline:base near > 1.0)

let test_jit_memoization_across_iterations () =
  (* iterative stencils re-execute the same region: the JIT must be
     memoized after the first iteration (paper §4.2) *)
  let w = Infs_workloads.Stencil.stencil2d ~iters:10 ~n:2048 in
  let r = E.run_exn E.Inf_s w in
  Alcotest.(check bool) "memo hits" true (r.R.jit.memo_hits >= 16);
  Alcotest.(check bool) "jit time below 20% of runtime" true
    (r.R.jit.total_jit_cycles < 0.2 *. r.R.cycles)

let test_gauss_jit_never_memoizes () =
  (* gauss's domains shrink every pivot iteration — the paper calls it the
     JIT outlier because nothing can be reused *)
  let w = Infs_workloads.Gauss.gauss_elim ~n:256 in
  let r = E.run_exn E.Inf_s w in
  Alcotest.(check int) "no memo hits" 0 r.R.jit.memo_hits

let test_tile_override () =
  let w = Infs_workloads.Stencil.stencil2d ~iters:2 ~n:2048 in
  let with_tile tile =
    cycles ~options:{ perf with E.tile_override = Some tile } E.Inf_s w
  in
  (* a degenerate 256x1 tile makes every vertical shift inter-tile *)
  Alcotest.(check bool) "balanced beats degenerate" true
    (with_tile [| 16; 16 |] <= with_tile [| 1; 256 |])

let test_timeline_and_report_fields () =
  let w = Infs_workloads.Pointnet.tiny () in
  let r = E.run_exn E.Inf_s w in
  Alcotest.(check bool) "timeline populated" true (List.length r.R.timeline > 10);
  Alcotest.(check bool) "utilization sane" true
    (r.R.noc_utilization >= 0.0 && r.R.noc_utilization <= 1.0);
  Alcotest.(check bool) "energy positive" true (r.R.energy > 0.0)

let test_in_mem_fraction_dots () =
  (* Fig 14's dots: nearly all ops execute in-memory for dense kernels *)
  let w = Infs_workloads.Stencil.stencil2d ~iters:10 ~n:2048 in
  let r = E.run_exn E.Inf_s w in
  Alcotest.(check bool) "ops >90% in-memory" true (r.R.in_mem_op_fraction > 0.9)

let test_run_rejects_invalid () =
  let open Ast in
  let bad =
    program ~name:"bad" ~params:[]
      ~arrays:[]
      [ Kernel (kernel "k" [ loop "i" (c 0) (c 4) ] [ store "Z" [ i "i" ] (fconst 1.0) ]) ]
  in
  let w = W.make ~name:"bad" ~params:[] ~inputs:(lazy []) bad in
  Alcotest.(check bool) "invalid program rejected" true
    (Result.is_error (E.run E.Base w))


let test_lot_capacity () =
  (* more transposed arrays than LOT entries (16): the oldest transposed
     regions are released to normal layout, and re-offloading them pays the
     transposition again — the program still runs and stays correct *)
  let open Ast in
  let n = Symaff.var "N" in
  let pairs = List.init 20 (fun i -> (Printf.sprintf "I%d" i, Printf.sprintf "O%d" i)) in
  let arrays =
    List.concat_map
      (fun (a, b) -> [ array a Dtype.Fp32 [ n ]; array b Dtype.Fp32 [ n ] ])
      pairs
  in
  let kernels_ =
    List.map
      (fun (a, b) ->
        Kernel
          (kernel ("k_" ^ a)
             [ loop "r" (c 0) n ]
             [ store b [ i "r" ] (load a [ i "r" ] + fconst 1.0) ]))
      pairs
  in
  let prog = program ~name:"lots" ~params:[ "N" ] ~arrays kernels_ in
  let w =
    W.make ~name:"lots" ~params:[ ("N", 256) ]
      ~inputs:
        (lazy
          (List.mapi
             (fun i (a, _) -> (a, Infs_workloads.Data.uniform ~seed:i 256))
             pairs))
      prog
  in
  let r = run_checked E.In_l3 w in
  Alcotest.(check int) "all 20 kernels ran" 20 (List.length r.R.timeline)


let test_portability_512 () =
  (* the same fat binary (which carries a 512-wordline schedule) runs on
     the big-array machine without recompilation *)
  let w = Infs_workloads.Stencil.stencil2d ~iters:2 ~n:48 in
  let options =
    { functional with E.cfg = Machine_config.big_arrays }
  in
  match E.run ~options E.Inf_s w with
  | Error e -> Alcotest.fail e
  | Ok r -> (
    match r.R.correctness with
    | `Checked err -> Alcotest.(check bool) "correct on 512x512" true (err < 1e-3)
    | `Skipped -> Alcotest.fail "expected check")


let test_in_dram_substrate () =
  (* the unchanged stack runs on the in-DRAM substrate sketch; within the
     L3's capacity the faster SRAM steps win, beyond it the in-DRAM
     substrate avoids the memory bus entirely *)
  let opts cfg =
    { perf with E.cfg; warm_data = true; pre_transposed = true; charge_jit = false }
  in
  let cyc cfg n =
    (E.run_exn ~options:(opts cfg) E.In_l3 (Infs_workloads.Micro.vec_add ~n)).R.cycles
  in
  let small_sram = cyc Machine_config.default 4_194_304 in
  let small_dram = cyc Machine_config.in_dram 4_194_304 in
  Alcotest.(check bool) "sram wins within its capacity" true
    (small_sram < small_dram);
  let big_sram = cyc Machine_config.default 33_554_432 in
  let big_dram = cyc Machine_config.in_dram 33_554_432 in
  Alcotest.(check bool) "in-DRAM wins beyond on-chip capacity" true
    (big_dram < big_sram);
  (* functional correctness is substrate-independent *)
  let w = Infs_workloads.Micro.vec_add ~n:4096 in
  let r =
    E.run_exn
      ~options:{ functional with E.cfg = Machine_config.in_dram }
      E.In_l3 w
  in
  match r.R.correctness with
  | `Checked err -> Alcotest.(check bool) "correct on DRAM substrate" true (err = 0.0)
  | `Skipped -> Alcotest.fail "expected check"

(* Regions, plans and JIT memo entries are keyed on the kernel name, so a
   program with two kernels of one name is refused rather than run with
   the first kernel's plan for both. *)
let test_run_rejects_duplicate_kernel_names () =
  let open Ast in
  let n = Symaff.var "N" in
  let prog =
    program ~name:"dup" ~params:[ "N" ]
      ~arrays:
        [
          array "A" Dtype.Fp32 [ n ]; array "B" Dtype.Fp32 [ n ]; array "C" Dtype.Fp32 [ n; n ];
        ]
      [
        Kernel
          (kernel "k"
             [ loop "i" (c 0) n ]
             [ store "B" [ i "i" ] (load "A" [ i "i" ] * load "A" [ i "i" ]) ]);
        Kernel
          (kernel "k"
             [ loop "i" (c 0) n; loop "j" (c 0) n ]
             [ accum Op.Add "C" [ i "i"; i "j" ] (load "B" [ i "j" ]) ]);
      ]
  in
  let w = W.make ~name:"dup" ~params:[ ("N", 64) ] ~inputs:(lazy []) prog in
  List.iter
    (fun p ->
      Alcotest.(check (result reject string))
        (E.paradigm_to_string p ^ " refuses the program")
        (Error "program dup: duplicate kernel name k") (E.run p w))
    [ E.Base; E.Inf_s ]

(* A performance-only run writes no array, so it allocates no array data:
   host reads of unwritten cells (gauss_elim's pivot A[k][k]) read zero.
   Large blocks go straight to the major heap, so the count to hold at zero
   is major minus promoted words; on one domain it is exact. One run per
   paradigm first creates the domain's command-cost memo, which is large
   enough to go there too. *)
let test_perf_runs_allocate_no_arrays () =
  let w, program =
    match Cat.find `Test "gauss_elim" with
    | Error e -> Alcotest.fail e
    | Ok w -> (
      match E.compile_program E.default_options w with
      | Ok p -> (w, p)
      | Error e -> Alcotest.fail e)
  in
  let run p =
    match E.run_program program p w with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  let paradigms = [ E.Base; E.Near_l3; E.In_l3; E.Inf_s ] in
  List.iter run paradigms;
  List.iter
    (fun p ->
      let _, promoted0, major0 = Gc.counters () in
      run p;
      let _, promoted1, major1 = Gc.counters () in
      Alcotest.(check (float 0.0))
        (E.paradigm_to_string p ^ ": words allocated directly in the major heap")
        0.0
        (major1 -. major0 -. (promoted1 -. promoted0)))
    paradigms

(* The JIT memo's identity is the resolved signature, not the variable
   values: host loops [a] and [b] over 0..2 run a kernel whose domain is
   [0, N - 4 + a + b), so nine invocations resolve to five signatures and
   four of them are memo hits, charged [memo_lookup_cycles]. Values pinned
   from string-keyed memos. *)
let test_jit_memo_keyed_by_signature () =
  let w =
    let open Ast in
    let nv = Symaff.var "N" in
    let x = load "X" [ i "i" ] in
    W.make ~name:"ab_sum" ~params:[ ("N", 1_048_576) ] ~inputs:(lazy [])
      (program ~name:"ab_sum" ~params:[ "N" ]
         ~arrays:[ array "X" Dtype.Fp32 [ nv ]; array "Y" Dtype.Fp32 [ nv ] ]
         [
           Host_loop
             ( loop "a" (c 0) (c 3),
               [
                 Host_loop
                   ( loop "b" (c 0) (c 3),
                     [
                       Kernel
                         (kernel "ab_sum"
                            [ loop "i" (c 0) (nv +! i "a" +! i "b" +% -4) ]
                            [ store "Y" [ i "i" ] (((((x * x) + x) * x) + (x * fconst 3.0)) * x) ]);
                     ] );
               ] );
         ])
  in
  List.iter
    (fun (p, share_compile) ->
      let r = E.run_exn ~options:{ E.default_options with share_compile } p w in
      let name = Printf.sprintf "%s (shared %b)" (E.paradigm_to_string p) share_compile in
      Alcotest.(check int) (name ^ ": invocations") 9 r.R.jit.R.invocations;
      Alcotest.(check int) (name ^ ": memo hits") 4 r.R.jit.R.memo_hits;
      Alcotest.(check (float 0.0)) (name ^ ": JIT cycles") 7940.0 r.R.jit.R.total_jit_cycles;
      Alcotest.(check (float 0.0)) (name ^ ": cycles") 374454.75 r.R.cycles)
    [ (E.In_l3, false); (E.In_l3, true); (E.Inf_s, false); (E.Inf_s, true) ]

(* Warm dispatch allocates a fixed number of minor words: shared runs of
   three test-scale programs at In-L3 and Inf-S, after one warm-up run
   each, so every plan is stored. Like the e-graph's bound, the count is
   exact on one compiler version; the bound leaves 2%. *)
let test_warm_dispatch_allocation () =
  let options = { E.default_options with share_compile = true } in
  let find name = match Cat.find `Test name with Ok w -> w | Error e -> Alcotest.fail e in
  let runs =
    List.concat_map
      (fun w -> List.map (fun p -> (p, w)) [ E.In_l3; E.Inf_s ])
      [ find "gauss_elim"; find "mm/out"; Infs_workloads.Pointnet.tiny () ]
  in
  List.iter (fun (p, w) -> ignore (E.run_exn ~options p w)) runs;
  let before = Gc.minor_words () in
  List.iter (fun (p, w) -> ignore (E.run_exn ~options p w)) runs;
  let words = Gc.minor_words () -. before in
  let bound = 147_537.0 *. 1.02 in
  if words > bound then
    Alcotest.failf "warm shared runs allocated %.0f minor words > bound %.0f" words bound

let suite =
  correctness_tests
  @ [
      ("pointnet tiny all paradigms", `Slow, test_pointnet_tiny_all_paradigms);
      ("fig2 crossover", `Quick, test_fig2_crossover);
      ("Inf-S beats Near/Base on stencil", `Quick, test_inf_s_beats_near_on_stencil);
      ("mm dataflow preference", `Quick, test_mm_dataflow_preference);
      ("noJIT no slower", `Quick, test_nojit_no_slower);
      ("traffic reduction", `Quick, test_traffic_reduction);
      ("energy efficiency ordering", `Quick, test_energy_efficiency_ordering);
      ("jit memoization across iterations", `Quick, test_jit_memoization_across_iterations);
      ("gauss jit never memoizes", `Quick, test_gauss_jit_never_memoizes);
      ("tile override", `Quick, test_tile_override);
      ("timeline and report fields", `Quick, test_timeline_and_report_fields);
      ("in-memory op fraction", `Quick, test_in_mem_fraction_dots);
      ("invalid program rejected", `Quick, test_run_rejects_invalid);
      ("LOT capacity respected", `Quick, test_lot_capacity);
      ("portability: 512x512 machine", `Quick, test_portability_512);
      ("in-DRAM substrate sketch", `Quick, test_in_dram_substrate);
      ("duplicate kernel names rejected", `Quick, test_run_rejects_duplicate_kernel_names);
      ("performance-only runs allocate no arrays", `Quick, test_perf_runs_allocate_no_arrays);
      ("jit memo keyed by the resolved signature", `Quick, test_jit_memo_keyed_by_signature);
      ("warm dispatch allocation bound", `Quick, test_warm_dispatch_allocation);
    ]
