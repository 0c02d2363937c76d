(* E-graph: congruence closure, rewrite soundness, compute-reuse benefits. *)

let n = Symaff.var "N"
let sr ranges = Symrect.make ranges

let test_union_find () =
  let g = Egraph.create ~dims:1 () in
  let a = Egraph.add g (Egraph.E_tensor { array = "A"; view = sr [ (Symaff.zero, n) ]; axes = [ 0 ] }) in
  let b = Egraph.add g (Egraph.E_tensor { array = "B"; view = sr [ (Symaff.zero, n) ]; axes = [ 0 ] }) in
  Alcotest.(check bool) "distinct" true (Egraph.find g a <> Egraph.find g b);
  Alcotest.(check bool) "union merges" true (Egraph.union g a b);
  Egraph.rebuild g;
  Alcotest.(check int) "same class" (Egraph.find g a) (Egraph.find g b);
  Alcotest.(check bool) "re-union is no-op" false (Egraph.union g a b)

let test_congruence () =
  let g = Egraph.create ~dims:1 () in
  let a = Egraph.add g (Egraph.E_tensor { array = "A"; view = sr [ (Symaff.zero, n) ]; axes = [ 0 ] }) in
  let b = Egraph.add g (Egraph.E_tensor { array = "B"; view = sr [ (Symaff.zero, n) ]; axes = [ 0 ] }) in
  let k = Egraph.add g (Egraph.E_const (Tdfg.Lit 2.0)) in
  let fa = Egraph.add g (Egraph.E_cmp (Op.Mul, [ a; k ])) in
  let fb = Egraph.add g (Egraph.E_cmp (Op.Mul, [ b; k ])) in
  Alcotest.(check bool) "f(a) <> f(b)" true (Egraph.find g fa <> Egraph.find g fb);
  ignore (Egraph.union g a b);
  Egraph.rebuild g;
  Alcotest.(check int) "congruence: f(a) = f(b)" (Egraph.find g fa) (Egraph.find g fb)

let test_union_domain_mismatch_rejected () =
  let g = Egraph.create ~dims:1 () in
  let a = Egraph.add g (Egraph.E_tensor { array = "A"; view = sr [ (Symaff.zero, n) ]; axes = [ 0 ] }) in
  let b =
    Egraph.add g
      (Egraph.E_tensor { array = "A"; view = sr [ (Symaff.one, n) ]; axes = [ 0 ] })
  in
  Alcotest.(check bool) "domain mismatch fails" true
    (try
       ignore (Egraph.union g a b);
       false
     with Failure _ -> true)

(* Rewrite soundness: optimizing a program's tDFG must not change its
   evaluation. Exercised on the 1D filter and symmetric conv2d. *)

let eval_with g prog params inputs =
  match Interp.create prog ~params with
  | Error e -> Alcotest.fail e
  | Ok env ->
    List.iter (fun (name, d) -> Interp.set_array env name d) inputs;
    Interp.run ~on_kernel:(fun env _ -> Tdfg_eval.eval g env) env;
    env

let check_optimize_preserves prog params inputs out_array =
  let k = List.hd (Ast.kernels prog) in
  let g =
    match Frontend.extract prog k with
    | Ok g -> g
    | Error e -> Alcotest.fail (Frontend.error_to_string e)
  in
  let opt, stats = Extract.optimize ~arrays:(Frontend.array_extents prog) g in
  let env1 = eval_with g prog params inputs in
  let env2 = eval_with opt prog params inputs in
  let a = Interp.get_array env1 out_array and b = Interp.get_array env2 out_array in
  Array.iteri
    (fun idx v ->
      if Float.abs (v -. b.(idx)) > 1e-4 *. Float.max 1.0 (Float.abs v) then
        Alcotest.failf "mismatch at %d: %f vs %f" idx v b.(idx))
    a;
  stats

let test_optimize_preserves_stencil () =
  let w = Infs_workloads.Stencil.stencil1d ~iters:1 ~n:64 in
  let prog = w.Infinity_stream.Workload.prog in
  let inputs = [ ("A", Infs_workloads.Data.uniform ~seed:5 64) ] in
  ignore (check_optimize_preserves prog [ ("N", 64); ("T", 1) ] inputs "B")

let test_optimize_preserves_conv2d () =
  let w = Infs_workloads.Conv.conv2d ~n:16 in
  let prog = w.Infinity_stream.Workload.prog in
  let inputs = [ ("A", Infs_workloads.Data.uniform ~seed:6 256) ] in
  ignore (check_optimize_preserves prog [ ("N", 16) ] inputs "B")

(* The paper's headline rewrite benefit: the symmetric 3x3 convolution
   shares coefficient products, so the optimized tDFG must be cheaper. *)
let test_conv2d_reuse_lowers_cost () =
  let w = Infs_workloads.Conv.conv2d ~n:256 in
  let prog = w.Infinity_stream.Workload.prog in
  let k = List.hd (Ast.kernels prog) in
  let g =
    match Frontend.extract prog k with
    | Ok g -> g
    | Error e -> Alcotest.fail (Frontend.error_to_string e)
  in
  let _, stats = Extract.optimize ~arrays:(Frontend.array_extents prog) g in
  Alcotest.(check bool)
    (Printf.sprintf "cost decreased (%.3g -> %.3g)" stats.Extract.cost_before
       stats.cost_after)
    true
    (stats.cost_after < stats.cost_before *. 0.95)

(* Fig. 20's pattern: cmp(+, cmp(xV, mv A_l), cmp(xV, mv A_r)) discovers the
   shared product via expand/shrink/commute rewrites. *)
let test_fig20_shared_product () =
  let open Ast in
  let prog =
    program ~name:"fig20" ~params:[ "N" ]
      ~arrays:[ array "A" Dtype.Fp32 [ n ]; array "B" Dtype.Fp32 [ n ] ]
      [
        Kernel
          (kernel "k"
             [ loop "i" (c 1) (n +% -1) ]
             [
               store "B" [ i "i" ]
                 ((fconst 3.0 * load "A" [ i "i" +% -1 ])
                 + (fconst 3.0 * load "A" [ i "i" +% 1 ]));
             ]);
      ]
  in
  let k = List.hd (Ast.kernels prog) in
  let g =
    match Frontend.extract prog k with
    | Ok g -> g
    | Error e -> Alcotest.fail (Frontend.error_to_string e)
  in
  let opt, stats = Extract.optimize ~arrays:(Frontend.array_extents prog) g in
  (* the optimized graph computes (x 3.0) once *)
  let muls =
    List.length
      (List.filter
         (fun id ->
           match Tdfg.kind opt id with
           | Tdfg.Cmp { op = Op.Mul; _ } -> true
           | _ -> false)
         (Tdfg.live_nodes opt))
  in
  Alcotest.(check int) "single shared multiply" 1 muls;
  Alcotest.(check bool) "cost strictly better" true
    (stats.Extract.cost_after < stats.cost_before);
  (* and it still evaluates correctly (up to fp32 reassociation) *)
  let inputs = [ ("A", Infs_workloads.Data.uniform ~seed:7 32) ] in
  let env1 = eval_with g prog [ ("N", 32) ] inputs in
  let env2 = eval_with opt prog [ ("N", 32) ] inputs in
  let a = Interp.get_array env1 "B" and b = Interp.get_array env2 "B" in
  Array.iteri
    (fun idx v ->
      if Float.abs (v -. b.(idx)) > 1e-5 then
        Alcotest.failf "mismatch at %d: %f vs %f" idx v b.(idx))
    a

let test_saturation_terminates () =
  let w = Infs_workloads.Conv.conv2d ~n:64 in
  let prog = w.Infinity_stream.Workload.prog in
  let k = List.hd (Ast.kernels prog) in
  let g =
    match Frontend.extract prog k with
    | Ok g -> g
    | Error e -> Alcotest.fail (Frontend.error_to_string e)
  in
  let eg, _ = Egraph.of_tdfg g in
  let rounds = Rules.saturate ~max_iters:4 ~node_limit:5000 ~arrays:(Frontend.array_extents prog) eg in
  Alcotest.(check bool) "bounded rounds" true (rounds <= 4);
  Alcotest.(check bool) "classes exist" true (Egraph.class_count eg > 0)

(* ---- Pin: every optimized tDFG of the catalog ----

   One line per kernel of every [Catalog.by_name] workload at both scales:
   saturation rounds, the saturated graph's size, the DAG cost before and
   after, and a digest of the optimized tDFG. Saturator and extractor
   changes that promise the same result must keep every line. *)

module Cat = Infs_workloads.Catalog

let golden path =
  let candidates =
    [
      Filename.concat (Filename.dirname Sys.executable_name) path;
      path;
      Filename.concat "test" path;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let scale_name = function `Paper -> "paper" | `Test -> "test"

(* [(key, arrays, tDFG)] for each kernel of the [scale] catalog that
   extracts to a tDFG (the others never reach the e-graph); the key names
   scale, workload and kernel. *)
let catalog_kernels scale =
  List.concat_map
    (fun (wname, (w : Infinity_stream.Workload.t)) ->
      let arrays = Frontend.array_extents w.prog in
      List.filter_map
        (fun (k : Ast.kernel) ->
          match Frontend.extract w.prog k with
          | Error _ -> None
          | Ok g -> Some (String.concat " " [ scale_name scale; wname; k.kname ], arrays, g))
        (Ast.kernels w.prog))
    (Cat.by_name scale)

let pin_line (key, arrays, g) =
  let opt, st = Extract.optimize ~arrays g in
  Printf.sprintf "%s rounds=%d classes=%d nodes=%d before=%h after=%h md5=%s" key
    st.Extract.rounds st.classes st.nodes st.cost_before st.cost_after
    (Digest.to_hex (Digest.string (Tdfg.to_string opt)))

let pin_lines () = List.map pin_line (catalog_kernels `Paper @ catalog_kernels `Test)

let test_pin () =
  let path = golden "golden/egraph_pin.txt" in
  let got = pin_lines () in
  let want = if Sys.file_exists path then read_lines path else [] in
  if got <> want then begin
    let out = Filename.concat (Sys.getcwd ()) "egraph_pin.got" in
    let oc = open_out_bin out in
    List.iter (fun l -> output_string oc (l ^ "\n")) got;
    close_out oc;
    (* a line's key is its first three fields *)
    let key l =
      match String.split_on_char ' ' l with
      | s :: w :: k :: _ -> String.concat " " [ s; w; k ]
      | _ -> l
    in
    let keys = List.sort_uniq compare (List.map key (got @ want)) in
    let differing =
      List.filter
        (fun k ->
          List.filter (fun l -> key l = k) got <> List.filter (fun l -> key l = k) want)
        keys
    in
    Alcotest.failf
      "%d of %d pinned kernels differ from %s:\n  %s\n\
       got lines written to %s; the pin holds every optimized tDFG, so only \
       replace the golden for an intended change to saturation or extraction."
      (List.length differing) (List.length keys) path
      (String.concat "\n  " differing) out
  end

(* Compiles run at the same time on pool domains, so nothing the e-graph
   caches may outlive its graph or be shared between graphs: optimizing the
   test-scale kernels in reverse order, or split across two domains running
   at once, must give exactly the in-order results. *)
let test_no_shared_state () =
  let jobs = catalog_kernels `Test in
  let in_order = List.map pin_line jobs in
  let reversed = List.rev (List.map pin_line (List.rev jobs)) in
  let concurrent =
    let half = List.length jobs / 2 in
    let first = List.filteri (fun i _ -> i < half) jobs
    and second = List.filteri (fun i _ -> i >= half) jobs in
    let d1 = Domain.spawn (fun () -> List.map pin_line first) in
    let d2 = Domain.spawn (fun () -> List.map pin_line second) in
    let r1 = Domain.join d1 in
    r1 @ Domain.join d2
  in
  let check label got =
    let differing =
      List.filter_map
        (fun (want, got) -> if want = got then None else Some got)
        (List.combine in_order got)
    in
    if differing <> [] then
      Alcotest.failf "%s: %d kernels differ from the in-order run:\n  %s" label
        (List.length differing) (String.concat "\n  " differing)
  in
  check "reverse order" reversed;
  check "two domains at once" concurrent

(* ---- Inttbl: the hashcons of the nodes that pack into one int ----

   Random runs of find, add, replace and remove against a reference
   [Hashtbl]. Keys come from a small range (0-127), so runs collide, wrap
   around the end of the table, delete from the middle of probe runs and
   grow the table from 16 slots to 256. After every operation every key
   of the range must read as in the reference: a deletion that left a
   hole in a probe run would lose the keys past it. *)

let inttbl_ops =
  let open QCheck.Gen in
  let kind =
    frequency [ (4, return `Add); (2, return `Replace); (3, return `Remove); (1, return `Find) ]
  in
  let name = function
    | `Add -> "add"
    | `Replace -> "replace"
    | `Remove -> "remove"
    | `Find -> "find"
  in
  QCheck.make
    ~print:(fun ops ->
      String.concat "; "
        (List.map (fun (kind, k, v) -> Printf.sprintf "%s %d %d" (name kind) k v) ops))
    (list_size (int_range 1 400) (triple kind (int_bound 127) (int_bound 1000)))

let prop_inttbl_model =
  QCheck.Test.make ~name:"Inttbl agrees with a reference Hashtbl" ~count:300 inttbl_ops
    (fun ops ->
      let t = Inttbl.create 0 and model = Hashtbl.create 16 in
      List.iteri
        (fun step (kind, k, v) ->
          (match kind with
           | `Add ->
             if not (Hashtbl.mem model k) then begin
               Inttbl.add t k v;
               Hashtbl.replace model k v
             end
           | `Replace ->
             Inttbl.replace t k v;
             Hashtbl.replace model k v
           | `Remove ->
             Inttbl.remove t k;
             Hashtbl.remove model k
           | `Find -> ());
          for key = 0 to 127 do
            let want = Option.value ~default:(-1) (Hashtbl.find_opt model key) in
            let got = Inttbl.find t key in
            if got <> want then
              QCheck.Test.fail_reportf "after op %d: key %d reads %d, want %d" step key got want
          done;
          if Inttbl.length t <> Hashtbl.length model then
            QCheck.Test.fail_reportf "after op %d: length %d, want %d" step (Inttbl.length t)
              (Hashtbl.length model);
          if 4 * Inttbl.length t > 3 * Inttbl.capacity t then
            QCheck.Test.fail_reportf "after op %d: %d keys in %d slots" step (Inttbl.length t)
              (Inttbl.capacity t))
        ops;
      true)

(* ---- Allocation bound: the e-graph's work, counted exactly ----

   Minor words allocated by [Extract.optimize] over the test-scale conv2d,
   conv3d and stencil3d kernels (they saturate exactly as at paper scale).
   The count is exact and repeats on one domain, so the bound is
   one-sided and tight: 41,507,092 words with OCaml 5.1.1, against
   47,338,648 before the int-keyed hashcons. The 2% margin covers other
   compiler builds (CI pins 5.1); a rise past it means the e-graph
   allocates more per pass. *)
let test_optimize_allocation () =
  let jobs =
    List.filter
      (fun (key, _, _) ->
        match String.split_on_char ' ' key with
        | _ :: w :: _ -> List.mem w [ "conv2d"; "conv3d"; "stencil3d" ]
        | _ -> false)
      (catalog_kernels `Test)
  in
  Alcotest.(check int) "kernels measured" 4 (List.length jobs);
  let before = Gc.minor_words () in
  List.iter (fun (_, arrays, g) -> ignore (Extract.optimize ~arrays g)) jobs;
  let words = Gc.minor_words () -. before in
  let bound = 41_507_092.0 *. 1.02 in
  if words > bound then
    Alcotest.failf "Extract.optimize allocated %.0f minor words > bound %.0f" words bound

let suite =
  [
    ("union-find", `Quick, test_union_find);
    ("congruence closure", `Quick, test_congruence);
    ("union domain mismatch", `Quick, test_union_domain_mismatch_rejected);
    ("optimize preserves stencil", `Quick, test_optimize_preserves_stencil);
    ("optimize preserves conv2d", `Quick, test_optimize_preserves_conv2d);
    ("conv2d reuse lowers cost", `Slow, test_conv2d_reuse_lowers_cost);
    ("Fig 20 shared product", `Quick, test_fig20_shared_product);
    ("saturation terminates", `Quick, test_saturation_terminates);
    ("pin: every optimized tDFG", `Quick, test_pin);
    ("no state shared between graphs", `Quick, test_no_shared_state);
    QCheck_alcotest.to_alcotest ~rand:(Qcheck_seed.rand ()) prop_inttbl_model;
    ("optimize allocation bound", `Quick, test_optimize_allocation);
  ]
