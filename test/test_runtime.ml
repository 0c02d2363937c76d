(* Layout selection (§4.1), JIT lowering (§4.2), memoization, Eq. 2. *)

let cfg = Machine_config.default

let no_hints =
  {
    Fat_binary.shift_dims = [];
    bc_dims = [];
    reduce_dims = [];
    primary_array = None;
    aligned_arrays = [];
  }

let test_layout_candidates_constraints () =
  let cands = Layout.candidates cfg ~shape:[| 2048; 2048 |] ~elems_per_line:16 in
  Alcotest.(check bool) "candidates exist" true (cands <> []);
  List.iter
    (fun (l : Layout.t) ->
      Alcotest.(check int) "tile volume = bitlines" cfg.sram_bitlines
        (Array.fold_left ( * ) 1 l.tile);
      let t_contig = l.tile.(Array.length l.tile - 1) in
      Alcotest.(check int) "line alignment" 0
        (t_contig * Machine_config.compute_arrays_per_bank cfg mod 16))
    cands

let test_layout_heuristic_shift_balanced () =
  let hints = { no_hints with Fat_binary.shift_dims = [ 0; 1 ] } in
  match Layout.choose cfg ~hints ~shape:[| 2048; 2048 |] ~elems_per_line:16 with
  | Error e -> Alcotest.fail e
  | Ok l ->
    (* paper: shifts favor a close-to-square tile (16x16 for 2D) *)
    Alcotest.(check (array int)) "square tile" [| 16; 16 |] l.Layout.tile

let test_layout_heuristic_reduce_dim_maximized () =
  let hints = { no_hints with Fat_binary.reduce_dims = [ 2 ] } in
  match Layout.choose cfg ~hints ~shape:[| 32768; 128; 128 |] ~elems_per_line:16 with
  | Error e -> Alcotest.fail e
  | Ok l ->
    (* tiling by 128 lets the reduction finish in-tile (paper §8 data
       layout discussion for kmeans/in) *)
    Alcotest.(check int) "reduce dim tile covers 128" 128 l.Layout.tile.(2)

let test_layout_heuristic_bc_small_innermost () =
  let hints = { no_hints with Fat_binary.bc_dims = [ 0; 1 ] } in
  match Layout.choose cfg ~hints ~shape:[| 2048; 2048 |] ~elems_per_line:16 with
  | Error e -> Alcotest.fail e
  | Ok l ->
    Alcotest.(check bool) "small innermost tile" true (l.Layout.tile.(1) <= 16)

let test_layout_of_tile_rejects_bad_volume () =
  Alcotest.(check bool) "bad volume" true
    (Result.is_error (Layout.of_tile cfg ~shape:[| 64; 64 |] ~tile:[| 8; 8 |]))

(* [-16; -16] multiplies out to the 256 bitlines, and so can a huge
   component once the product overflows *)
let test_layout_of_tile_rejects_bad_components () =
  let error tile =
    match Layout.of_tile cfg ~shape:[| 64; 64 |] ~tile with
    | Ok _ -> "accepted"
    | Error e -> e
  in
  Alcotest.(check string) "negative components" "tile component -16 < 1" (error [| -16; -16 |]);
  Alcotest.(check string) "zero component" "tile component 0 < 1" (error [| 0; 16 |]);
  (* (2^61 + 64) * 4 wraps round to 256 in a plain product *)
  Alcotest.(check string) "huge component" "tile volume > 256 bitlines"
    (error [| (1 lsl 61) + 64; 4 |])

(* lowering helpers *)

let lower_region ?(env = fun _ -> 0) w kname =
  let prog = w.Infinity_stream.Workload.prog in
  match Fat_binary.compile prog with
  | Error e -> Alcotest.fail e
  | Ok fb -> (
    match Fat_binary.region_of fb kname with
    | None -> Alcotest.fail ("no region " ^ kname)
    | Some r -> (
      match r.fallback with
      | Some f -> Alcotest.fail ("fallback: " ^ f)
      | None ->
        let g = r.optimized in
        let schedule = List.assoc 256 r.schedules in
        let shape =
          (* small fixed shape for the tests *)
          Array.make (Tdfg.lattice_dims g) 64
        in
        let layout =
          match Layout.choose cfg ~hints:r.hints ~shape ~elems_per_line:16 with
          | Ok l -> l
          | Error e -> Alcotest.fail e
        in
        (g, schedule, layout, env)))

let test_lowering_stencil_commands () =
  let w = Infs_workloads.Stencil.stencil1d ~iters:1 ~n:64 in
  let g, _, _, _ = lower_region w "stencil1d" in
  let env = function
    | "N" -> 4096
    | "T" -> 1
    | "t" -> 0
    | v -> Alcotest.failf "unexpected var %s" v
  in
  let layout =
    match Layout.of_tile cfg ~shape:[| 4096 |] ~tile:[| 256 |] with
    | Ok l -> l
    | Error e -> Alcotest.fail e
  in
  let schedule =
    match Schedule.compile ~wordlines:256 g with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let acmds, stats = Jit.lower cfg g ~schedule ~layout ~env in
  let cmds = Array.to_list acmds in
  Alcotest.(check bool) "commands produced" true (stats.Jit.commands > 0);
  (* the two mv(+-1) nodes each produce intra- and inter-tile shifts at
     tile boundaries, and inter-tile movement forces a sync before use *)
  let inter =
    List.exists
      (fun (c : Command.t) ->
        match c.kind with Command.Inter_shift _ -> true | _ -> false)
      cmds
  in
  let sync = List.exists Command.is_sync cmds in
  Alcotest.(check bool) "inter-tile shifts" true inter;
  Alcotest.(check bool) "sync inserted" true sync;
  (* a sync must appear before the first compute that follows an
     inter-tile shift *)
  let rec check_order dirty = function
    | [] -> true
    | (c : Command.t) :: rest -> (
      match c.kind with
      | Command.Inter_shift _ -> check_order true rest
      | Command.Sync -> check_order false rest
      | Command.Compute _ | Command.Reduce _ ->
        (not dirty) && check_order dirty rest
      | _ -> check_order dirty rest)
  in
  Alcotest.(check bool) "sync precedes consumers" true (check_order false cmds)

(* Property: Algorithm 2 conserves elements — the lanes moved by the shift
   commands of one mv equal the tensor's volume. *)
let prop_mv_lowering_conserves_elements =
  QCheck.Test.make ~name:"Alg 2 conserves moved elements" ~count:200
    QCheck.(
      quad (int_range 1 64) (int_range 65 512) (int_range (-40) 40)
        (oneofl [ 256 ]))
    (fun (lo, hi, dist, tile) ->
      QCheck.assume (dist <> 0);
      QCheck.assume (hi - lo > 1);
      let g = Tdfg.create ~name:"t" ~dims:1 ~dtype:Dtype.Fp32 in
      let view = Symrect.of_hyperrect (Hyperrect.of_ranges [ (lo, hi) ]) in
      let a = Tdfg.tensor g ~array:"A" ~view ~axes:[ 0 ] in
      let m = Tdfg.mv g a ~dim:0 ~dist in
      Tdfg.add_output g (Tdfg.Out_tensor { src = m; array = "B"; axes = [ 0 ] });
      let schedule =
        match Schedule.compile ~wordlines:256 g with
        | Ok s -> s
        | Error e -> failwith e
      in
      QCheck.assume (tile = 256);
      let layout =
        match Layout.of_tile cfg ~shape:[| 1024 |] ~tile:[| tile |] with
        | Ok l -> l
        | Error e -> failwith e
      in
      let acmds, _ = Jit.lower cfg g ~schedule ~layout ~env:(fun _ -> 0) in
      let cmds = Array.to_list acmds in
      let moved =
        List.fold_left
          (fun acc (c : Command.t) ->
            match c.kind with
            | Command.Intra_shift _ | Command.Inter_shift _ ->
              acc + Command.elements_touched c
            | _ -> acc)
          0 cmds
      in
      moved = hi - lo)

let test_memoization () =
  let w = Infs_workloads.Stencil.stencil1d ~iters:1 ~n:64 in
  let g, _, _, _ = lower_region w "stencil1d" in
  let schedule =
    match Schedule.compile ~wordlines:256 g with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let layout =
    match Layout.of_tile cfg ~shape:[| 4096 |] ~tile:[| 256 |] with
    | Ok l -> l
    | Error e -> Alcotest.fail e
  in
  let env = function "N" -> 4096 | _ -> 0 in
  let memo = Jit.memo_create ~regions:1 and store = Jit.store_create () in
  let sg = Jit.signature ~region:0 ~live:[||] [||] in
  let lower () =
    Jit.lower_memo memo ~store ~kernel:"k" sg cfg g ~schedule ~layout ~layout_str:"l" ~env
  in
  let _, s1 = lower () in
  let _, s2 = lower () in
  Alcotest.(check bool) "first is a miss" false s1.Jit.memoized;
  Alcotest.(check bool) "second is a hit" true s2.Jit.memoized;
  Alcotest.(check bool) "hit is much cheaper" true
    (s2.jit_cycles < s1.jit_cycles /. 2.0);
  Alcotest.(check int) "hit count" 1 (Jit.memo_hits memo)

let test_decision_small_stays_near () =
  let v =
    Decision.decide cfg
      ~ops:[ (Op.Add, 1) ]
      ~node_count:5 ~dtype:Dtype.Fp32 ~elems:4096.0 ~flops:4096.0
      ~data_bytes:49152.0 ~fits:true ~jit_known:false
  in
  Alcotest.(check bool) "small input stays near" true
    (v.Decision.target = Decision.Near_memory)

let test_decision_large_goes_in_memory () =
  let v =
    Decision.decide cfg
      ~ops:[ (Op.Add, 5) ]
      ~node_count:10 ~dtype:Dtype.Fp32 ~elems:4.0e6 ~flops:2.0e7
      ~data_bytes:3.2e7 ~fits:true ~jit_known:false
  in
  Alcotest.(check bool) "large input offloads" true
    (v.Decision.target = Decision.In_memory)

let test_decision_no_layout () =
  let v =
    Decision.decide cfg ~ops:[] ~node_count:0 ~dtype:Dtype.Fp32 ~elems:1.0
      ~flops:1.0 ~data_bytes:1.0 ~fits:false ~jit_known:false
  in
  Alcotest.(check bool) "no layout -> near" true
    (v.Decision.target = Decision.Near_memory)

(* Eq. 2's inequality is strict: [core > imc] offloads, so an exact tie
   must stay near-memory (documented in decision.mli). Zero work on both
   sides (no ops, no flops, no bytes, JIT memoized) is an exact 0 = 0
   tie, reproducible in floating point. *)
let test_decision_exact_tie_stays_near () =
  let v =
    Decision.decide cfg ~ops:[] ~node_count:0 ~dtype:Dtype.Fp32 ~elems:0.0
      ~flops:0.0 ~data_bytes:0.0 ~fits:true ~jit_known:true
  in
  Alcotest.(check (float 0.0)) "core side" 0.0 v.Decision.core_cycles;
  Alcotest.(check (float 0.0)) "imc side" 0.0 v.Decision.imc_cycles;
  Alcotest.(check bool) "tie resolves to near-memory" true
    (v.Decision.target = Decision.Near_memory);
  Alcotest.(check bool) "reason names the tie" true
    (String.length v.Decision.reason >= 4
    && String.sub v.Decision.reason 0 4 = "tie:")

let test_decision_override_force_imc () =
  (* same inputs as the small-stays-near case: the override flips it *)
  let v =
    Decision.decide cfg ~override:Decision.Force_imc
      ~ops:[ (Op.Add, 1) ]
      ~node_count:5 ~dtype:Dtype.Fp32 ~elems:4096.0 ~flops:4096.0
      ~data_bytes:49152.0 ~fits:true ~jit_known:false
  in
  Alcotest.(check bool) "forced in-memory" true
    (v.Decision.target = Decision.In_memory);
  Alcotest.(check bool) "reason records the Eq. 2 verdict" true
    (v.Decision.reason = "tuned override: force-imc (Eq. 2 picks near-memory)")

let test_decision_override_force_core () =
  let v =
    Decision.decide cfg ~override:Decision.Force_core
      ~ops:[ (Op.Add, 5) ]
      ~node_count:10 ~dtype:Dtype.Fp32 ~elems:4.0e6 ~flops:2.0e7
      ~data_bytes:3.2e7 ~fits:true ~jit_known:false
  in
  Alcotest.(check bool) "forced off the in-memory path" true
    (v.Decision.target = Decision.Near_memory);
  Alcotest.(check bool) "reason records the Eq. 2 verdict" true
    (v.Decision.reason = "tuned override: force-core (Eq. 2 picks in-memory)")

let test_decision_override_ignored_without_layout () =
  (* fits=false is a hard constraint: no override can offload *)
  let v =
    Decision.decide cfg ~override:Decision.Force_imc ~ops:[] ~node_count:0
      ~dtype:Dtype.Fp32 ~elems:1.0 ~flops:1.0 ~data_bytes:1.0 ~fits:false
      ~jit_known:false
  in
  Alcotest.(check bool) "no layout -> near even under force-imc" true
    (v.Decision.target = Decision.Near_memory)

let test_decision_policy_resolve () =
  let policy =
    Decision.Tuned
      {
        default = Decision.Force_core;
        per_kernel = [ ("k2", Decision.Force_imc) ];
      }
  in
  Alcotest.(check bool) "heuristic resolves to Auto" true
    (Decision.resolve Decision.Heuristic ~kernel:"k2" = Decision.Auto);
  Alcotest.(check bool) "per-kernel entry wins" true
    (Decision.resolve policy ~kernel:"k2" = Decision.Force_imc);
  Alcotest.(check bool) "other kernels get the default" true
    (Decision.resolve policy ~kernel:"k1" = Decision.Force_core)

let test_decision_memoized_jit_lowers_threshold () =
  let mk jit_known =
    Decision.decide cfg
      ~ops:[ (Op.Add, 1) ]
      ~node_count:100 ~dtype:Dtype.Fp32 ~elems:1.0e6 ~flops:1.3e7
      ~data_bytes:4.0e6 ~fits:true ~jit_known
  in
  Alcotest.(check bool) "jit term matters" true
    ((mk true).Decision.imc_cycles < (mk false).Decision.imc_cycles)

let suite =
  [
    ("layout candidates meet constraints", `Quick, test_layout_candidates_constraints);
    ("layout: shifts pick square tiles", `Quick, test_layout_heuristic_shift_balanced);
    ("layout: reduction maximizes reduced dim", `Quick, test_layout_heuristic_reduce_dim_maximized);
    ("layout: broadcast picks small innermost", `Quick, test_layout_heuristic_bc_small_innermost);
    ("layout: bad volume rejected", `Quick, test_layout_of_tile_rejects_bad_volume);
    ("lowering: stencil commands + sync", `Quick, test_lowering_stencil_commands);
    QCheck_alcotest.to_alcotest ~rand:(Qcheck_seed.rand ()) prop_mv_lowering_conserves_elements;
    ("memoization", `Quick, test_memoization);
    ("Eq2: small stays near", `Quick, test_decision_small_stays_near);
    ("Eq2: large offloads", `Quick, test_decision_large_goes_in_memory);
    ("Eq2: no layout", `Quick, test_decision_no_layout);
    ("Eq2: exact tie stays near", `Quick, test_decision_exact_tie_stays_near);
    ("Eq2: force-imc override", `Quick, test_decision_override_force_imc);
    ("Eq2: force-core override", `Quick, test_decision_override_force_core);
    ("Eq2: override needs a layout", `Quick, test_decision_override_ignored_without_layout);
    ("Eq2: policy resolution", `Quick, test_decision_policy_resolve);
    ("Eq2: memoized JIT", `Quick, test_decision_memoized_jit_lowers_threshold);
    ("layout: bad tile components rejected", `Quick, test_layout_of_tile_rejects_bad_components);
  ]
