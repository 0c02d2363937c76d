(* ".shard3": the suffix a sharded front gives its children's side files *)
let is_shard_suffix ext =
  String.starts_with ~prefix:".shard" ext
  && String.length ext > 6
  && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub ext 6 (String.length ext - 6))

let has_ext path ext =
  let last = Filename.extension path in
  let path =
    if last = ".front" || is_shard_suffix last then Filename.remove_extension path else path
  in
  Filename.check_suffix path ext
