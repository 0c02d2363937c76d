type entry = {
  label : string;
  variants : (string * Infinity_stream.Workload.t) list;
}

type scale = [ `Paper | `Test ]

(* One row per Table 3 entry: its label and, per dataflow variant, a
   constructor at either scale. Building an entry runs only its own
   constructors, so a lookup by name builds one workload. *)
let rows : (string * (string * (scale -> Infinity_stream.Workload.t)) list) list =
  let single label mk = (label, [ ("", mk) ]) in
  [
    single "stencil1d" (function
      | `Paper -> Stencil.stencil1d ~iters:10 ~n:4_194_304
      | `Test -> Stencil.stencil1d ~iters:3 ~n:512);
    single "stencil2d" (function
      | `Paper -> Stencil.stencil2d ~iters:10 ~n:2048
      | `Test -> Stencil.stencil2d ~iters:2 ~n:48);
    single "stencil3d" (function
      | `Paper -> Stencil.stencil3d ~iters:10 ~nx:512 ~ny:512 ~nz:16
      | `Test -> Stencil.stencil3d ~iters:2 ~nx:12 ~ny:12 ~nz:8);
    single "dwt2d" (function `Paper -> Dwt2d.dwt2d ~n:2048 | `Test -> Dwt2d.dwt2d ~n:32);
    single "gauss_elim" (function
      | `Paper -> Gauss.gauss_elim ~n:2048
      | `Test -> Gauss.gauss_elim ~n:24);
    single "conv2d" (function `Paper -> Conv.conv2d ~n:2048 | `Test -> Conv.conv2d ~n:32);
    single "conv3d" (function
      | `Paper -> Conv.conv3d ~hw:256 ~channels:64
      | `Test -> Conv.conv3d ~hw:12 ~channels:4);
    ( "mm",
      [
        ("in", function `Paper -> Mm.mm_inner ~n:2048 | `Test -> Mm.mm_inner ~n:16);
        ("out", function `Paper -> Mm.mm_outer ~n:2048 | `Test -> Mm.mm_outer ~n:16);
      ] );
    ( "kmeans",
      [
        ( "in",
          function
          | `Paper -> Kmeans.kmeans_inner ~points:32768 ~dim:128 ~centers:128
          | `Test -> Kmeans.kmeans_inner ~points:64 ~dim:8 ~centers:4 );
        ( "out",
          function
          | `Paper -> Kmeans.kmeans_outer ~points:32768 ~dim:128 ~centers:128
          | `Test -> Kmeans.kmeans_outer ~points:64 ~dim:8 ~centers:4 );
      ] );
    ( "gather_mlp",
      [
        ( "in",
          function
          | `Paper -> Gather_mlp.gather_mlp_inner ~rows:32768 ~feat:128 ~vocab:65536
          | `Test -> Gather_mlp.gather_mlp_inner ~rows:32 ~feat:8 ~vocab:64 );
        ( "out",
          function
          | `Paper -> Gather_mlp.gather_mlp_outer ~rows:32768 ~feat:128 ~vocab:65536
          | `Test -> Gather_mlp.gather_mlp_outer ~rows:32 ~feat:8 ~vocab:64 );
      ] );
    single "attention" (function
      | `Paper -> Transformer.attention ~batch:8 ~seq:512 ~dh:64 ()
      | `Test -> Transformer.attention ~batch:2 ~seq:8 ~dh:4 ());
    single "layernorm" (function
      | `Paper -> Transformer.layernorm ~rows:4096 ~dim:1024
      | `Test -> Transformer.layernorm ~rows:12 ~dim:8);
    single "mlp" (function
      | `Paper -> Transformer.mlp ~rows:2048 ~dim:1024 ~hidden:4096
      | `Test -> Transformer.mlp ~rows:8 ~dim:8 ~hidden:16);
  ]

let entries scale =
  List.map
    (fun (label, variants) ->
      { label; variants = List.map (fun (v, mk) -> (v, mk scale)) variants })
    rows

let table3 () = entries `Paper
let test_scale () = entries `Test

let variant_name label v = if v = "" then label else label ^ "/" ^ v

let all_variants entries =
  List.concat_map
    (fun e -> List.map (fun (v, w) -> (variant_name e.label v, w)) e.variants)
    entries

(* Every nameable workload as a constructor, in [by_name] order. *)
let constructors (scale : scale) =
  let n = match scale with `Paper -> 4_194_304 | `Test -> 16_384 in
  List.concat_map
    (fun (label, variants) ->
      List.map (fun (v, mk) -> (variant_name label v, fun () -> mk scale)) variants)
    rows
  @ [
      ("vec_add", fun () -> Micro.vec_add ~n);
      ("array_sum", fun () -> Micro.array_sum ~n);
      ( "pointnet/ssg",
        fun () -> match scale with `Paper -> Pointnet.ssg () | `Test -> Pointnet.tiny () );
      ( "pointnet/msg",
        fun () -> match scale with `Paper -> Pointnet.msg () | `Test -> Pointnet.tiny () );
    ]

let by_name scale = List.map (fun (name, mk) -> (name, mk ())) (constructors scale)
let names scale = List.sort String.compare (List.map fst (constructors scale))

let find scale name =
  match List.assoc_opt name (constructors scale) with
  | Some mk -> Ok (mk ())
  | None ->
    Error
      (Printf.sprintf "unknown workload %s; available: %s" name
         (String.concat ", " (names scale)))
