type entry = { workload : string; paradigm : string; tag : string; cycles : float }

type t = { suite : string; meta : (string * string) list; results : entry list }

let key e =
  e.workload ^ " [" ^ e.paradigm ^ "]" ^ if e.tag = "" then "" else " #" ^ e.tag

let commit t = List.assoc_opt "commit" t.meta
let timestamp t = List.assoc_opt "timestamp" t.meta

let of_json j =
  match Option.bind (Json.member "schema" j) Json.to_str with
  | Some "infs-bench-1" -> (
    let suite =
      Option.value ~default:""
        (Option.bind (Json.member "suite" j) Json.to_str)
    in
    let meta =
      match Json.member "meta" j with
      | Some (Json.Obj kvs) ->
        List.filter_map
          (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_str v))
          kvs
      | _ -> []
    in
    match Option.bind (Json.member "results" j) Json.to_list with
    | None -> Error "missing \"results\" array"
    | Some rs ->
      let entry e =
        match
          ( Option.bind (Json.member "workload" e) Json.to_str,
            Option.bind (Json.member "paradigm" e) Json.to_str,
            Option.bind (Json.member "cycles" e) Json.to_num )
        with
        | Some workload, Some paradigm, Some cycles ->
          let tag =
            Option.value ~default:""
              (Option.bind (Json.member "tag" e) Json.to_str)
          in
          Ok { workload; paradigm; tag; cycles }
        | _ -> Error "malformed result entry"
      in
      List.fold_left
        (fun acc e -> Result.bind acc (fun l -> Result.map (fun x -> x :: l) (entry e)))
        (Ok []) rs
      |> Result.map (fun l -> { suite; meta; results = List.rev l }))
  | Some other -> Error ("unknown schema " ^ other)
  | None -> Error "missing \"schema\" field"

let of_string s = Result.bind (Json.parse s) of_json

let to_alist t = List.map (fun e -> (key e, e.cycles)) t.results

let pair ~old_ ~new_ =
  let old_alist = to_alist old_ and new_alist = to_alist new_ in
  ( List.map (fun e -> (e, List.assoc_opt (key e) old_alist)) new_.results,
    List.filter (fun (k, _) -> not (List.mem_assoc k new_alist)) old_alist )

let delta_pct ~old_c ~new_c = 100.0 *. (new_c -. old_c) /. Float.max 1e-9 old_c
