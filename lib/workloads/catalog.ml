type entry = {
  label : string;
  variants : (string * Infinity_stream.Workload.t) list;
}

let single label w = { label; variants = [ ("", w) ] }

let table3 () =
  [
    single "stencil1d" (Stencil.stencil1d ~iters:10 ~n:4_194_304);
    single "stencil2d" (Stencil.stencil2d ~iters:10 ~n:2048);
    single "stencil3d" (Stencil.stencil3d ~iters:10 ~nx:512 ~ny:512 ~nz:16);
    single "dwt2d" (Dwt2d.dwt2d ~n:2048);
    single "gauss_elim" (Gauss.gauss_elim ~n:2048);
    single "conv2d" (Conv.conv2d ~n:2048);
    single "conv3d" (Conv.conv3d ~hw:256 ~channels:64);
    {
      label = "mm";
      variants =
        [ ("in", Mm.mm_inner ~n:2048); ("out", Mm.mm_outer ~n:2048) ];
    };
    {
      label = "kmeans";
      variants =
        [
          ("in", Kmeans.kmeans_inner ~points:32768 ~dim:128 ~centers:128);
          ("out", Kmeans.kmeans_outer ~points:32768 ~dim:128 ~centers:128);
        ];
    };
    {
      label = "gather_mlp";
      variants =
        [
          ("in", Gather_mlp.gather_mlp_inner ~rows:32768 ~feat:128 ~vocab:65536);
          ("out", Gather_mlp.gather_mlp_outer ~rows:32768 ~feat:128 ~vocab:65536);
        ];
    };
    single "attention" (Transformer.attention ~batch:8 ~seq:512 ~dh:64 ());
    single "layernorm" (Transformer.layernorm ~rows:4096 ~dim:1024);
    single "mlp" (Transformer.mlp ~rows:2048 ~dim:1024 ~hidden:4096);
  ]

let test_scale () =
  [
    single "stencil1d" (Stencil.stencil1d ~iters:3 ~n:512);
    single "stencil2d" (Stencil.stencil2d ~iters:2 ~n:48);
    single "stencil3d" (Stencil.stencil3d ~iters:2 ~nx:12 ~ny:12 ~nz:8);
    single "dwt2d" (Dwt2d.dwt2d ~n:32);
    single "gauss_elim" (Gauss.gauss_elim ~n:24);
    single "conv2d" (Conv.conv2d ~n:32);
    single "conv3d" (Conv.conv3d ~hw:12 ~channels:4);
    {
      label = "mm";
      variants = [ ("in", Mm.mm_inner ~n:16); ("out", Mm.mm_outer ~n:16) ];
    };
    {
      label = "kmeans";
      variants =
        [
          ("in", Kmeans.kmeans_inner ~points:64 ~dim:8 ~centers:4);
          ("out", Kmeans.kmeans_outer ~points:64 ~dim:8 ~centers:4);
        ];
    };
    {
      label = "gather_mlp";
      variants =
        [
          ("in", Gather_mlp.gather_mlp_inner ~rows:32 ~feat:8 ~vocab:64);
          ("out", Gather_mlp.gather_mlp_outer ~rows:32 ~feat:8 ~vocab:64);
        ];
    };
    single "attention" (Transformer.attention ~batch:2 ~seq:8 ~dh:4 ());
    single "layernorm" (Transformer.layernorm ~rows:12 ~dim:8);
    single "mlp" (Transformer.mlp ~rows:8 ~dim:8 ~hidden:16);
  ]

let all_variants entries =
  List.concat_map
    (fun e ->
      List.map
        (fun (v, w) ->
          ((if v = "" then e.label else e.label ^ "/" ^ v), w))
        e.variants)
    entries

type scale = [ `Paper | `Test ]

let by_name (scale : scale) =
  let entries = match scale with `Paper -> table3 () | `Test -> test_scale () in
  let n = match scale with `Paper -> 4_194_304 | `Test -> 16_384 in
  all_variants entries
  @ [
      ("vec_add", Micro.vec_add ~n);
      ("array_sum", Micro.array_sum ~n);
      ("pointnet/ssg", match scale with `Paper -> Pointnet.ssg () | `Test -> Pointnet.tiny ());
      ("pointnet/msg", match scale with `Paper -> Pointnet.msg () | `Test -> Pointnet.tiny ());
    ]

let names scale = List.sort String.compare (List.map fst (by_name scale))

let find scale name =
  match List.assoc_opt name (by_name scale) with
  | Some w -> Ok w
  | None ->
    Error
      (Printf.sprintf "unknown workload %s; available: %s" name
         (String.concat ", " (names scale)))
