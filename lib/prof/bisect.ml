type cell = {
  workload : string;
  paradigm : string;
  tag : string;
  key : string;
  old_cycles : float;
  new_cycles : float;
  delta_pct : float;
}

type group = { label : string; cells : cell list; impact : float; worst : cell }

(* Every key present in both snapshots, in new-file order. *)
let cells_of ~old_ ~new_ =
  List.filter_map
    (fun ((e : Bench_file.entry), old_c) ->
      Option.map
        (fun old_c ->
          {
            workload = e.workload;
            paradigm = e.paradigm;
            tag = e.tag;
            key = Bench_file.key e;
            old_cycles = old_c;
            new_cycles = e.cycles;
            delta_pct = Bench_file.delta_pct ~old_c ~new_c:e.cycles;
          })
        old_c)
    (fst (Bench_file.pair ~old_ ~new_))

let impact_of cells =
  List.fold_left (fun a c -> a +. Float.abs (c.new_cycles -. c.old_cycles)) 0.0 cells

let worst_of cells =
  match cells with
  | [] -> invalid_arg "Bisect.worst_of: empty group"
  | c :: rest ->
    List.fold_left
      (fun w c -> if Float.abs c.delta_pct > Float.abs w.delta_pct then c else w)
      c rest

let group label cells = { label; cells; impact = impact_of cells; worst = worst_of cells }

let distinct f cells =
  List.sort_uniq String.compare (List.map f cells)

let minimize ?(threshold = 2.0) ~old_ ~new_ () =
  let cells = cells_of ~old_ ~new_ in
  let moved = List.filter (fun c -> Float.abs c.delta_pct > threshold) cells in
  let groups =
    if moved = [] then []
    else if List.length moved = List.length cells && List.length cells > 1 then
      (* everything moved: a global shift (machine-config change, cost-model
         edit), not a per-cell regression — minimize to one root entry *)
      [ group "* [*]" moved ]
    else begin
      let covered = Hashtbl.create 16 in
      let is_covered c = Hashtbl.mem covered c.key in
      let cover c = Hashtbl.replace covered c.key () in
      (* a complete dimension group absorbs its cells only when the whole
         slice moved — a partial slice stays cell-by-cell, which is the
         point of minimizing: name the smallest complete cause *)
      let wgroups =
        List.filter_map
          (fun w ->
            let slice = List.filter (fun c -> c.workload = w) cells in
            let slice_moved = List.filter (fun c -> Float.abs c.delta_pct > threshold) slice in
            if List.length slice > 1 && List.length slice_moved = List.length slice
            then begin
              List.iter cover slice;
              Some (group (w ^ " [*]") slice)
            end
            else None)
          (distinct (fun c -> c.workload) moved)
      in
      let pgroups =
        List.filter_map
          (fun p ->
            let slice =
              List.filter (fun c -> c.paradigm = p && not (is_covered c)) cells
            in
            let slice_moved = List.filter (fun c -> Float.abs c.delta_pct > threshold) slice in
            if List.length slice > 1 && List.length slice_moved = List.length slice
            then begin
              List.iter cover slice;
              Some (group ("* [" ^ p ^ "]") slice)
            end
            else None)
          (distinct (fun c -> c.paradigm)
             (List.filter (fun c -> not (is_covered c)) moved))
      in
      let singles =
        List.filter_map
          (fun c -> if is_covered c then None else Some (group c.key [ c ]))
          moved
      in
      wgroups @ pgroups @ singles
    end
  in
  (* impact-descending; label-ascending on ties: a total order *)
  ( List.sort
      (fun a b ->
        match compare b.impact a.impact with
        | 0 -> String.compare a.label b.label
        | c -> c)
      groups,
    List.length cells,
    List.length moved )

let to_json ?(threshold = 2.0) (groups, compared, moved) =
  Json.Obj
    [
      ("schema", Json.Str "infs-bisect-1");
      ("threshold_pct", Json.Num threshold);
      ("compared", Json.Num (float_of_int compared));
      ("moved", Json.Num (float_of_int moved));
      ( "groups",
        Json.Arr
          (List.map
             (fun g ->
               Json.Obj
                 [
                   ("label", Json.Str g.label);
                   ("cells", Json.Num (float_of_int (List.length g.cells)));
                   ("impact_cycles", Json.Num g.impact);
                   ("worst_key", Json.Str g.worst.key);
                   ("worst_pct", Json.Num g.worst.delta_pct);
                 ])
             groups) );
    ]

let to_text ?(threshold = 2.0) (groups, compared, moved) =
  let b = Buffer.create 512 in
  Printf.bprintf b
    "bench-bisect: %d cells compared, %d moved beyond %g%%, %d groups\n"
    compared moved threshold (List.length groups);
  List.iter
    (fun g ->
      Printf.bprintf b "  %-44s %3d cells  impact %12.4e cycles  worst %+.2f%% (%s)\n"
        g.label (List.length g.cells) g.impact g.worst.delta_pct g.worst.key)
    groups;
  Buffer.contents b
