type status = Steady | Warn | Improved | Regression | Drop | New | Removed

let status_name = function
  | Steady -> "ok"
  | Warn -> "warn"
  | Improved -> "improved"
  | Regression -> "regression"
  | Drop -> "drop"
  | New -> "new"
  | Removed -> "removed"

let fails = function Regression | Drop | Removed -> true | _ -> false

type row = {
  key : string;
  status : status;
  old_cycles : float option;
  new_cycles : float option;
}

type t = { warn : float; max_regress : float; rows : row list }

let delta_of r =
  match (r.old_cycles, r.new_cycles) with
  | Some old_c, Some new_c -> Some (Bench_file.delta_pct ~old_c ~new_c)
  | _ -> None

let diff ~warn ~max_regress ~old_ ~new_ =
  let classify d =
    if d > max_regress then Regression
    else if d < -.max_regress then Drop
    else if d > warn then Warn
    else if d < -.warn then Improved
    else Steady
  in
  let row ((e : Bench_file.entry), old_c) =
    let status =
      match old_c with
      | None -> New
      | Some old_c -> classify (Bench_file.delta_pct ~old_c ~new_c:e.cycles)
    in
    { key = Bench_file.key e; status; old_cycles = old_c; new_cycles = Some e.cycles }
  in
  let removed_row (key, c) = { key; status = Removed; old_cycles = Some c; new_cycles = None } in
  let paired, removed = Bench_file.pair ~old_ ~new_ in
  { warn; max_regress; rows = List.map row paired @ List.map removed_row removed }

let failed t = List.exists (fun r -> fails r.status) t.rows
let count t s = List.length (List.filter (fun r -> r.status = s) t.rows)
let deltas t = List.filter_map delta_of t.rows

(* the largest signed delta over the compared rows *)
let worst t =
  match deltas t with
  | [] -> None
  | d :: ds -> Some (List.fold_left (fun w d -> if d > w then d else w) d ds)

(* failing statuses print in capitals *)
let label s = if fails s then String.uppercase_ascii (status_name s) else status_name s

let to_text t =
  let b = Buffer.create 1024 in
  List.iter
    (fun r ->
      match (r.status, r.old_cycles, r.new_cycles) with
      | Steady, _, _ -> ()
      | New, _, Some nc -> Printf.bprintf b "new entry   %-44s %12.4e cycles\n" r.key nc
      | s, Some oc, Some nc ->
        Printf.bprintf b "%-11s %-44s %+8.2f%%  (%.4e -> %.4e cycles)\n" (label s) r.key
          (Bench_file.delta_pct ~old_c:oc ~new_c:nc)
          oc nc
      | s, _, _ -> Printf.bprintf b "%-11s %s\n" (label s) r.key)
    t.rows;
  Printf.bprintf b
    "bench-diff: %d compared; %d regressed (> %g%%), %d dropped (< -%g%%), %d warned \
     (> %g%%), %d improved, %d removed; worst %s\n"
    (List.length (deltas t))
    (count t Regression) t.max_regress (count t Drop) t.max_regress (count t Warn) t.warn
    (count t Improved) (count t Removed)
    (match worst t with None -> "n/a" | Some w -> Printf.sprintf "%+.2f%%" w);
  Buffer.contents b

let to_json t =
  let num n = Json.Num (float_of_int n) in
  let entry r =
    let field name = Option.map (fun c -> (name, Json.Num c)) in
    Json.Obj
      ([ ("key", Json.Str r.key); ("status", Json.Str (status_name r.status)) ]
      @ List.filter_map Fun.id
          [
            field "old_cycles" r.old_cycles;
            field "new_cycles" r.new_cycles;
            field "delta_pct" (delta_of r);
          ])
  in
  Json.Obj
    [
      ("schema", Json.Str "infs-bench-diff-1");
      ("warn_pct", Json.Num t.warn);
      ("max_regress_pct", Json.Num t.max_regress);
      ("compared", num (List.length (deltas t)));
      ("regressed", num (count t Regression));
      ("dropped", num (count t Drop));
      ("warned", num (count t Warn));
      ("improved", num (count t Improved));
      ("removed", num (count t Removed));
      ("worst_pct", match worst t with None -> Json.Null | Some w -> Json.Num w);
      ("entries", Json.Arr (List.map entry t.rows));
    ]
