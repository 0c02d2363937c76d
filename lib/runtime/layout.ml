type t = {
  tile : int array;
  grid : int array;
  shape : int array;
  tiles_total : int;
}

let ceil_div a b = (a + b - 1) / b

let check_tile cfg tile =
  let bitlines = cfg.Machine_config.sram_bitlines in
  match Array.find_opt (fun c -> c < 1) tile with
  | Some c -> Error (Printf.sprintf "tile component %d < 1" c)
  | None ->
    (* every factor is >= 1, so the product never shrinks: stop once past
       [bitlines], before a huge component can overflow it *)
    let vol =
      Array.fold_left
        (fun v c -> if v > bitlines || c > bitlines then bitlines + 1 else v * c)
        1 tile
    in
    if vol = bitlines then Ok ()
    else if vol > bitlines then
      Error (Printf.sprintf "tile volume > %d bitlines" bitlines)
    else Error (Printf.sprintf "tile volume %d != %d bitlines" vol bitlines)

let build cfg ~shape ~tile =
  let n = Array.length shape in
  if Array.length tile <> n then Error "tile rank mismatch"
  else
    match check_tile cfg tile with
    | Error e -> Error e
    | Ok () ->
      let grid = Array.init n (fun d -> max 1 (ceil_div shape.(d) tile.(d))) in
      let tiles_total = Array.fold_left ( * ) 1 grid in
      (* The grid may exceed the physical array count: only the tiles a
         region instance actually touches must be resident (the engine
         checks that per invocation, paper §6 limitation 2). *)
      Ok { tile; grid; shape; tiles_total }

(* Constraint 2: contiguous-dimension elements per bank align with the
   cache line. The innermost lattice dimension is the contiguous one. *)
let line_constraint cfg ~tile ~elems_per_line =
  let n = Array.length tile in
  if n = 0 then true
  else begin
    let t_contig = tile.(n - 1) in
    let w = Machine_config.compute_arrays_per_bank cfg in
    t_contig * w mod elems_per_line = 0
  end

let pow2_factorizations total n =
  (* all n-tuples of powers of two whose product is [total] *)
  let rec go n total =
    if n = 1 then [ [ total ] ]
    else begin
      let rec firsts f acc = if f > total then acc else firsts (f * 2) (f :: acc) in
      let fs = firsts 1 [] in
      List.concat_map
        (fun f -> if total mod f = 0 then List.map (fun r -> f :: r) (go (n - 1) (total / f)) else [])
        fs
    end
  in
  List.map Array.of_list (go n total)

let candidates cfg ~shape ~elems_per_line =
  let n = Array.length shape in
  if n = 0 then []
  else
    pow2_factorizations cfg.Machine_config.sram_bitlines n
    |> List.filter (fun tile -> line_constraint cfg ~tile ~elems_per_line)
    |> List.filter_map (fun tile ->
           match build cfg ~shape ~tile with Ok l -> Some l | Error _ -> None)
    |> List.sort (fun a b -> compare a.tile b.tile)

let log2f x = log (Float.max 1.0 x) /. log 2.0

let score _cfg ~(hints : Fat_binary.hints) l =
  let n = Array.length l.tile in
  let tile_f d = float_of_int l.tile.(d) in
  let eff d = Float.min (tile_f d) (float_of_int (max 1 l.shape.(d))) in
  let s = ref 0.0 in
  (* Reduction: the larger the tile along the reduced dimension, the more
     rounds complete in-memory (highest priority). *)
  List.iter
    (fun d -> if d < n then s := !s +. (4.0 *. log2f (eff d)))
    hints.reduce_dims;
  (* Shifts: prefer balanced tiles — penalize aspect-ratio skew across the
     shifted dimensions (and overall). *)
  if hints.shift_dims <> [] then begin
    let dims = List.filter (fun d -> d < n) hints.shift_dims in
    let dims = if List.length dims >= 2 then dims else List.init n Fun.id in
    let mx = List.fold_left (fun acc d -> Float.max acc (tile_f d)) 1.0 dims in
    let mn = List.fold_left (fun acc d -> Float.min acc (tile_f d)) mx dims in
    s := !s -. (2.0 *. log2f (mx /. mn))
  end;
  (* Broadcast: a smaller innermost tile spreads a source row over more
     L3 banks, avoiding the hotspot — but a 1-wide tile wastes the H-tree,
     so the sweet spot sits around 8 elements. *)
  if hints.bc_dims <> [] && n > 0 then
    s := !s -. Float.abs (log2f (tile_f (n - 1)) -. 3.0);
  (* Mild preference against degenerate single-element dimensions. *)
  Array.iter (fun td -> if td = 1 then s := !s -. 0.25) l.tile;
  !s

let choose cfg ~hints ~shape ~elems_per_line =
  match candidates cfg ~shape ~elems_per_line with
  | [] -> Error "no valid tile size: in-memory computing disabled"
  | cands ->
    let best =
      List.fold_left
        (fun (bl, bs) l ->
          let sc = score cfg ~hints l in
          if sc > bs then (l, sc) else (bl, bs))
        (List.hd cands, score cfg ~hints (List.hd cands))
        (List.tl cands)
    in
    Ok (fst best)

let of_tile cfg ~shape ~tile = build cfg ~shape ~tile

let imc_view l = { Imc.grid = l.grid; tile = l.tile }

let to_string l =
  Printf.sprintf "tile=%s grid=%s (%d tiles)"
    (String.concat "x" (Array.to_list (Array.map string_of_int l.tile)))
    (String.concat "x" (Array.to_list (Array.map string_of_int l.grid)))
    l.tiles_total
