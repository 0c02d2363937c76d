(* Workload construction: Table 3/4 parameters, data generators, catalog
   coverage, and a randomized compiler soundness property over generated
   affine kernels. *)

module W = Infinity_stream.Workload
module Cat = Infs_workloads.Catalog

let test_catalog_covers_table3 () =
  let labels = List.map (fun (e : Cat.entry) -> e.label) (Cat.table3 ()) in
  Alcotest.(check (list string))
    "table 3 suite"
    [
      "stencil1d"; "stencil2d"; "stencil3d"; "dwt2d"; "gauss_elim"; "conv2d";
      "conv3d"; "mm"; "kmeans"; "gather_mlp"; "attention"; "layernorm"; "mlp";
    ]
    labels;
  (* the multi-dataflow entries carry both variants *)
  List.iter
    (fun (e : Cat.entry) ->
      if List.mem e.label [ "mm"; "kmeans"; "gather_mlp" ] then
        Alcotest.(check int) (e.label ^ " has 2 dataflows") 2
          (List.length e.variants))
    (Cat.table3 ())

let test_paper_sizes () =
  let find label =
    List.find (fun (e : Cat.entry) -> e.label = label) (Cat.table3 ())
  in
  let params (e : Cat.entry) = (snd (List.hd e.variants)).W.params in
  Alcotest.(check (option int)) "stencil1d 4M" (Some 4_194_304)
    (List.assoc_opt "N" (params (find "stencil1d")));
  Alcotest.(check (option int)) "mm 2k" (Some 2048)
    (List.assoc_opt "N" (params (find "mm")));
  Alcotest.(check (option int)) "kmeans 32k points" (Some 32768)
    (List.assoc_opt "P" (params (find "kmeans")));
  Alcotest.(check (option int)) "kmeans 128 dims" (Some 128)
    (List.assoc_opt "D" (params (find "kmeans")))

let test_programs_validate () =
  List.iter
    (fun (name, w) ->
      match Ast.validate w.W.prog with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" name e)
    (Cat.all_variants (Cat.table3 ())
    @ [
        ("pointnet/ssg", Infs_workloads.Pointnet.ssg ());
        ("pointnet/msg", Infs_workloads.Pointnet.msg ());
      ])

let test_table4_params () =
  let t = Infs_workloads.Pointnet.table4 in
  Alcotest.(check int) "nine SAs" 9 (List.length t);
  let sa1 = List.assoc "SA1" t in
  Alcotest.(check int) "SA1 K" 512 sa1.Infs_workloads.Pointnet.sa_k;
  Alcotest.(check (list int)) "SA1 dims" [ 64; 64; 128 ] sa1.sa_dims;
  let sa3 = List.assoc "SA3" t in
  Alcotest.(check int) "SA3 K=1" 1 sa3.sa_k;
  Alcotest.(check bool) "SA3 radius inf" true (Float.is_integer sa3.sa_r = false || sa3.sa_r = infinity)

let test_data_generators () =
  let u = Infs_workloads.Data.uniform ~seed:1 1000 in
  Alcotest.(check bool) "uniform in [0,1)" true
    (Array.for_all (fun x -> x >= 0.0 && x < 1.0) u);
  let u2 = Infs_workloads.Data.uniform ~seed:1 1000 in
  Alcotest.(check bool) "deterministic" true (u = u2);
  let ix = Infs_workloads.Data.indices ~seed:2 ~bound:50 1000 in
  Alcotest.(check bool) "indices in range" true
    (Array.for_all (fun x -> x >= 0.0 && x < 50.0 && Float.is_integer x) ix);
  let d = Infs_workloads.Data.diag_dominant ~seed:3 16 in
  let row_ok i =
    let diag = Float.abs d.((i * 16) + i) in
    let off =
      List.fold_left
        (fun acc j -> if j = i then acc else acc +. Float.abs d.((i * 16) + j))
        0.0
        (List.init 16 Fun.id)
    in
    diag > off
  in
  Alcotest.(check bool) "diagonally dominant" true
    (List.for_all row_ok (List.init 16 Fun.id));
  Alcotest.(check (float 0.0)) "iota" 5.0 (Infs_workloads.Data.iota 8).(5)

let test_default_check_arrays () =
  let w = Infs_workloads.Micro.vec_add ~n:64 in
  Alcotest.(check (list string)) "kernel targets" [ "C" ] w.W.check_arrays

(* Randomized compiler soundness: generate small affine kernels (windowed
   loads with random constant coefficients and offsets), then check that
   extract -> e-graph optimize -> tDFG evaluation matches the interpreter. *)
let random_kernel_case =
  let gen =
    QCheck.Gen.(
      let term = triple (int_range (-2) 2) (int_range (-2) 2) (int_range 1 9) in
      pair (list_size (int_range 1 5) term) (int_range 0 1000))
  in
  QCheck.make
    ~print:(fun (taps, seed) ->
      Printf.sprintf "seed=%d taps=%s" seed
        (String.concat ";"
           (List.map (fun (a, b, c) -> Printf.sprintf "(%d,%d,%d)" a b c) taps)))
    gen

let prop_random_kernels_sound =
  QCheck.Test.make ~name:"random affine kernels: optimize preserves semantics"
    ~count:60 random_kernel_case (fun (taps, seed) ->
      let open Ast in
      let n = Symaff.var "N" in
      let rhs =
        List.fold_left
          (fun acc (di, dj, coeff) ->
            let oi = Stdlib.( + ) di 2 and oj = Stdlib.( + ) dj 2 in
            let term =
              fconst (float_of_int coeff /. 8.0)
              * load "A" [ i "r" +% oi; i "j" +% oj ]
            in
            match acc with None -> Some term | Some e -> Some (e + term))
          None taps
        |> Option.get
      in
      let prog =
        program ~name:"rand" ~params:[ "N" ]
          ~arrays:[ array "A" Dtype.Fp32 [ n; n ]; array "B" Dtype.Fp32 [ n; n ] ]
          [
            Kernel
              (kernel "rand"
                 [ loop "r" (c 0) (n +% -4); loop "j" (c 0) (n +% -4) ]
                 [ store "B" [ i "r"; i "j" ] rhs ]);
          ]
      in
      let k = List.hd (kernels prog) in
      match Frontend.extract prog k with
      | Error _ -> false
      | Ok g ->
        let opt, _ = Extract.optimize ~arrays:(Frontend.array_extents prog) g in
        let size = 12 in
        let input = Infs_workloads.Data.uniform ~seed (Stdlib.( * ) size size) in
        let run graph =
          match Interp.create prog ~params:[ ("N", size) ] with
          | Error _ -> None
          | Ok env ->
            Interp.set_array env "A" input;
            (try
               Interp.run ~on_kernel:(fun env _ -> Tdfg_eval.eval graph env) env;
               Some (Interp.get_array env "B")
             with Failure _ -> None)
        in
        (match (run g, run opt) with
        | Some a, Some b ->
          Array.for_all2 (fun x y -> Float.abs (x -. y) <= 1e-4) a b
        | _ -> false))



let functional = { Infinity_stream.Engine.default_options with functional = true }

let check_extra p w =
  match Infinity_stream.Engine.run ~options:functional p w with
  | Error e -> Alcotest.fail e
  | Ok r -> (
    match r.Infinity_stream.Report.correctness with
    | `Checked err -> Alcotest.(check bool) "correct" true (err < 1e-3)
    | `Skipped -> Alcotest.fail "expected check")

let test_extras_functional () =
  let open Infinity_stream.Engine in
  List.iter
    (fun w -> List.iter (fun p -> check_extra p w) [ Base; Near_l3; In_l3; Inf_s ])
    [
      Infs_workloads.Extras.bitscan ~n:1024 ~threshold:500.0;
      Infs_workloads.Extras.saxpy ~n:1024 ~a:2.5;
      Infs_workloads.Extras.histogram ~n:1024 ~bins:32;
    ]

let test_bitscan_int_latency () =
  (* the int32 scan's in-memory compute is far cheaper than an fp32 one *)
  let opts =
    {
      Infinity_stream.Engine.default_options with
      warm_data = true;
      pre_transposed = true;
      charge_jit = false;
    }
  in
  let scan =
    Infinity_stream.Engine.run_exn ~options:opts Infinity_stream.Engine.In_l3
      (Infs_workloads.Extras.bitscan ~n:4_194_304 ~threshold:500.0)
  in
  let fp =
    Infinity_stream.Engine.run_exn ~options:opts Infinity_stream.Engine.In_l3
      (Infs_workloads.Micro.vec_add ~n:4_194_304)
  in
  Alcotest.(check bool) "int scan much cheaper than fp add" true
    (scan.Infinity_stream.Report.cycles *. 3.0 < fp.Infinity_stream.Report.cycles)

let test_histogram_stays_off_srams () =
  (* pure irregular scatter: Inf-S must keep it near-memory *)
  let r =
    Infinity_stream.Engine.run_exn Infinity_stream.Engine.Inf_s
      (Infs_workloads.Extras.histogram ~n:1_000_000 ~bins:1024)
  in
  Alcotest.(check (Alcotest.float 0.01)) "no in-memory ops" 0.0
    r.Infinity_stream.Report.in_mem_op_fraction

(* [find] builds only the named workload, yet must return exactly the
   [by_name] entry, and a fresh value per call (concurrent runs must never
   share lazy inputs). *)
let test_find_matches_by_name () =
  List.iter
    (fun scale ->
      List.iter
        (fun (name, (want : W.t)) ->
          match (Cat.find scale name, Cat.find scale name) with
          | Ok a, Ok b ->
            Alcotest.(check string) "name" want.wname a.W.wname;
            Alcotest.(check (list (pair string int))) (name ^ " params") want.params a.params;
            Alcotest.(check string) (name ^ " program")
              (Format.asprintf "%a" Ast.pp_program want.prog)
              (Format.asprintf "%a" Ast.pp_program a.prog);
            Alcotest.(check bool) (name ^ ": fresh per call") true (a != b && a.inputs != b.inputs)
          | Error e, _ | _, Error e -> Alcotest.fail e)
        (Cat.by_name scale))
    [ `Paper; `Test ];
  match Cat.find `Test "nope" with
  | Ok _ -> Alcotest.fail "found an unknown workload"
  | Error e ->
    Alcotest.(check bool) "the error lists the names" true
      (String.starts_with ~prefix:"unknown workload nope; available: array_sum, " e)

let suite =
  [
    ("catalog covers Table 3", `Quick, test_catalog_covers_table3);
    ("paper sizes", `Quick, test_paper_sizes);
    ("all suite programs validate", `Quick, test_programs_validate);
    ("Table 4 parameters", `Quick, test_table4_params);
    ("data generators", `Quick, test_data_generators);
    ("default check arrays", `Quick, test_default_check_arrays);
    QCheck_alcotest.to_alcotest ~rand:(Qcheck_seed.rand ()) ~long:true prop_random_kernels_sound;
    ("extras functional", `Quick, test_extras_functional);
    ("bitscan int latency", `Quick, test_bitscan_int_latency);
    ("histogram stays near-memory", `Quick, test_histogram_stays_off_srams);
    ("find builds the by_name entry", `Quick, test_find_matches_by_name);
  ]
