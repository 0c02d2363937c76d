open Egraph

type rule = { rname : string; apply : Egraph.t -> (eid * eid) list }

(* Match [f cls n] against every (class, node) pair in class-id then node
   order and collect the unions it proposes. The classes are those present
   when the rule starts: adding a node makes a new class and leaves every
   existing class's nodes alone, so growing the graph mid-rule changes no
   match. *)
let scan g f =
  List.concat_map (fun cls -> List.concat_map (f cls) (nodes_of g cls)) (classes g)

let scan_opt g f = scan g (fun cls n -> Option.to_list (f cls n))

let is_infinite g id =
  match domain_of g id with Tdfg.Infinite -> true | Tdfg.Finite _ -> false

let finite_dom g id =
  match domain_of g id with Tdfg.Infinite -> None | Tdfg.Finite r -> Some r

(* Guarded add: rewrites can produce nodes whose domain analysis fails
   (incomparable symbolic intersections); those candidates are dropped. *)
let try_add g n = try Some (add g n) with Failure _ -> None

let mvs_of g cls =
  List.filter_map
    (function E_mv { input; dim; dist } -> Some (input, dim, dist) | _ -> None)
    (nodes_of g cls)

let bcs_of g cls =
  List.filter_map
    (function E_bc { input; dim; lo; hi } -> Some (input, dim, lo, hi) | _ -> None)
    (nodes_of g cls)

let shrinks_of g cls =
  List.filter_map
    (function E_shrink { input; rect } -> Some (input, rect) | _ -> None)
    (nodes_of g cls)

(* Eq. 3b: commutativity. *)
let rule_comm =
  {
    rname = "comm";
    apply =
      (fun g ->
        scan_opt g (fun cls -> function
            | E_cmp (op, [ a; b ]) when Op.is_commutative op ->
              Option.map (fun n -> (cls, n)) (try_add g (E_cmp (op, [ b; a ])))
            | _ -> None));
  }

(* Eq. 3a: associativity. *)
let rule_assoc =
  {
    rname = "assoc";
    apply =
      (fun g ->
        scan g (fun cls -> function
            | E_cmp (op, [ ab; c ]) when Op.is_associative op ->
              List.filter_map
                (function
                  | E_cmp (op', [ a; b ]) when Op.equal op op' -> (
                    match try_add g (E_cmp (op, [ b; c ])) with
                    | None -> None
                    | Some bc ->
                      Option.map (fun n -> (cls, n)) (try_add g (E_cmp (op, [ a; bc ]))))
                  | _ -> None)
                (nodes_of g ab)
            | _ -> []));
  }

(* Eq. 3c: factor a common constant multiplier: a*k + b*k => (a+b)*k. *)
let rule_factor =
  {
    rname = "factor";
    apply =
      (fun g ->
        let const_muls cls =
          List.filter_map
            (function
              | E_cmp (m, [ x; k ]) when Op.equal m Op.Mul && is_infinite g k ->
                Some (x, k)
              | _ -> None)
            (nodes_of g cls)
        in
        scan g (fun cls -> function
            | E_cmp (f, [ x; y ]) when Op.equal f Op.Add || Op.equal f Op.Sub ->
              List.concat_map
                (fun (a, ka) ->
                  List.filter_map
                    (fun (b, kb) ->
                      if find g ka <> find g kb then None
                      else
                        match try_add g (E_cmp (f, [ a; b ])) with
                        | None -> None
                        | Some sum ->
                          Option.map
                            (fun n -> (cls, n))
                            (try_add g (E_cmp (Op.Mul, [ sum; ka ]))))
                    (const_muls y))
                (const_muls x)
            | _ -> []));
  }

(* mv identities: distance 0; mv/bc of an infinite-domain constant; chained
   mvs on the same dimension fuse. *)
let rule_mv_simplify =
  {
    rname = "mv-simplify";
    apply =
      (fun g ->
        scan g (fun cls -> function
            | E_mv { input; dist = 0; _ } -> [ (cls, input) ]
            | E_mv { input; dim; dist } ->
              if is_infinite g input then [ (cls, input) ]
              else
                List.filter_map
                  (fun (inner, dim2, dist2) ->
                    if dim = dim2 then
                      Option.map
                        (fun n -> (cls, n))
                        (try_add g (E_mv { input = inner; dim; dist = dist + dist2 }))
                    else None)
                  (mvs_of g input)
            | E_bc { input; _ } when is_infinite g input -> [ (cls, input) ]
            | _ -> []));
  }

(* Eq. 4a: hoist a common mv out of a compute node — every finite operand is
   moved by the same (dim, dist); constants pass through unchanged. *)
let rule_hoist_mv =
  {
    rname = "hoist-mv";
    apply =
      (fun g ->
        scan_opt g (fun cls -> function
            | E_cmp (op, inputs) -> begin
              let finite = List.filter (fun i -> not (is_infinite g i)) inputs in
              match finite with
              | [] -> None
              | f0 :: _ -> (
                match mvs_of g f0 with
                | [] -> None
                | (_, dim, dist) :: _ when dist <> 0 -> begin
                  (* each finite input must contain a mv by (dim, dist) *)
                  let unmoved =
                    List.map
                      (fun i ->
                        if is_infinite g i then Some i
                        else
                          List.find_map
                            (fun (src, d2, ds2) ->
                              if d2 = dim && ds2 = dist then Some src else None)
                            (mvs_of g i))
                      inputs
                  in
                  if List.exists Option.is_none unmoved then None
                  else
                    let unmoved = List.map Option.get unmoved in
                    match try_add g (E_cmp (op, unmoved)) with
                    | None -> None
                    | Some inner ->
                      Option.map
                        (fun n -> (cls, n))
                        (try_add g (E_mv { input = inner; dim; dist }))
                end
                | _ -> None)
            end
            | _ -> None));
  }

(* Eq. 4a reversed: sink a mv below a compute node. *)
let rule_sink_mv =
  {
    rname = "sink-mv";
    apply =
      (fun g ->
        scan g (fun cls -> function
            | E_mv { input; dim; dist } ->
              List.filter_map
                (function
                  | E_cmp (op, inputs) ->
                    let moved =
                      List.map
                        (fun i ->
                          if is_infinite g i then Some i
                          else try_add g (E_mv { input = i; dim; dist }))
                        inputs
                    in
                    if List.exists Option.is_none moved then None
                    else
                      Option.map
                        (fun n -> (cls, n))
                        (try_add g (E_cmp (op, List.map Option.get moved)))
                  | _ -> None)
                (nodes_of g input)
            | _ -> []));
  }

(* Eq. 4b: hoist a common bc out of a compute node. *)
let rule_hoist_bc =
  {
    rname = "hoist-bc";
    apply =
      (fun g ->
        scan_opt g (fun cls -> function
            | E_cmp (op, inputs) -> begin
              let finite = List.filter (fun i -> not (is_infinite g i)) inputs in
              match finite with
              | [] -> None
              | f0 :: _ -> (
                match bcs_of g f0 with
                | [] -> None
                | (_, dim, lo, hi) :: _ -> begin
                  let unbc =
                    List.map
                      (fun i ->
                        if is_infinite g i then Some i
                        else
                          List.find_map
                            (fun (src, d2, lo2, hi2) ->
                              if d2 = dim && Symaff.equal lo lo2 && Symaff.equal hi hi2
                              then Some src
                              else None)
                            (bcs_of g i))
                      inputs
                  in
                  if List.exists Option.is_none unbc then None
                  else
                    let unbc = List.map Option.get unbc in
                    match try_add g (E_cmp (op, unbc)) with
                    | None -> None
                    | Some inner ->
                      Option.map
                        (fun n -> (cls, n))
                        (try_add g (E_bc { input = inner; dim; lo; hi }))
                end)
            end
            | _ -> None));
  }

(* Eq. 5: expand a tensor view to the whole array behind a shrink. *)
let rule_expand_tensor ~arrays =
  {
    rname = "expand-tensor";
    apply =
      (fun g ->
        scan_opt g (fun cls -> function
            | E_tensor { array; view; axes } -> begin
              match List.assoc_opt array arrays with
              | None -> None
              | Some extents ->
                let full =
                  List.fold_left
                    (fun acc (j, ext) ->
                      let dim = List.nth axes j in
                      Symrect.with_range acc ~dim ~lo:Symaff.zero ~hi:ext)
                    view
                    (List.mapi (fun j e -> (j, e)) extents)
                in
                if Symrect.equal full view then None
                else begin
                  match try_add g (E_tensor { array; view = full; axes }) with
                  | None -> None
                  | Some big ->
                    Option.map
                      (fun n -> (cls, n))
                      (try_add g (E_shrink { input = big; rect = view }))
                end
            end
            | _ -> None));
  }

(* Eq. 6b: nested shrinks collapse (inner domain already contains outer). *)
let rule_shrink_shrink =
  {
    rname = "shrink-shrink";
    apply =
      (fun g ->
        scan g (fun cls -> function
            | E_shrink { input; rect } ->
              List.filter_map
                (fun (inner, rect2) ->
                  if Symrect.contains rect2 rect then
                    Option.map
                      (fun n -> (cls, n))
                      (try_add g (E_shrink { input = inner; rect }))
                  else None)
                (shrinks_of g input)
            | _ -> []));
  }

let rule_shrink_identity =
  {
    rname = "shrink-identity";
    apply =
      (fun g ->
        scan_opt g (fun cls -> function
            | E_shrink { input; rect } -> (
              match finite_dom g input with
              | Some d when Symrect.equal d rect -> Some (cls, input)
              | _ -> None)
            | _ -> None));
  }

(* Eq. 7a/7b: commute shrink with mv (shrink window shifts along). *)
let rule_shrink_mv =
  {
    rname = "shrink-mv";
    apply =
      (fun g ->
        scan g (fun cls -> function
            | E_mv { input; dim; dist } ->
              (* mv(shrink(r, A)) => shrink(shift r, mv(A)) *)
              List.filter_map
                (fun (src, r) ->
                  match try_add g (E_mv { input = src; dim; dist }) with
                  | None -> None
                  | Some moved ->
                    Option.map
                      (fun n -> (cls, n))
                      (try_add g
                         (E_shrink { input = moved; rect = Symrect.shift r ~dim ~dist })))
                (shrinks_of g input)
            | E_shrink { input; rect } ->
              (* shrink(r, mv(A)) => mv(shrink(shift^-1 r, A)) *)
              List.filter_map
                (fun (src, dim, dist) ->
                  match finite_dom g src with
                  | Some d
                    when Symrect.contains d (Symrect.shift rect ~dim ~dist:(-dist)) -> begin
                    match
                      try_add g
                        (E_shrink
                           { input = src; rect = Symrect.shift rect ~dim ~dist:(-dist) })
                    with
                    | None -> None
                    | Some shrunk ->
                      Option.map
                        (fun n -> (cls, n))
                        (try_add g (E_mv { input = shrunk; dim; dist }))
                  end
                  | _ -> None)
                (mvs_of g input)
            | _ -> []));
  }

(* Eq. 8b: shrink directly after a bc on the same dimension re-targets the
   broadcast. *)
let rule_shrink_bc =
  {
    rname = "shrink-bc";
    apply =
      (fun g ->
        scan g (fun cls -> function
            | E_shrink { input; rect } ->
              List.filter_map
                (fun (src, dim, _lo, _hi) ->
                  match finite_dom g input with
                  | Some bc_dom
                    when Symrect.equal
                           (Symrect.with_range bc_dom ~dim ~lo:(Symrect.lo rect dim)
                              ~hi:(Symrect.hi rect dim))
                           rect ->
                    (* rect only restricts the broadcast dimension *)
                    Option.map
                      (fun n -> (cls, n))
                      (try_add g
                         (E_bc
                            {
                              input = src;
                              dim;
                              lo = Symrect.lo rect dim;
                              hi = Symrect.hi rect dim;
                            }))
                  | _ -> None)
                (bcs_of g input)
            | _ -> []));
  }

(* Eq. 9: commute shrink with compute (both directions). *)
let rule_shrink_cmp =
  {
    rname = "shrink-cmp";
    apply =
      (fun g ->
        scan g (fun cls -> function
            | E_shrink { input; rect } ->
              (* shrink(r, cmp(f, xs)) => cmp(f, shrink(r, xs)) *)
              List.filter_map
                (function
                  | E_cmp (op, inputs) ->
                    let shrunk =
                      List.map
                        (fun i ->
                          if is_infinite g i then Some i
                          else try_add g (E_shrink { input = i; rect }))
                        inputs
                    in
                    if List.exists Option.is_none shrunk then None
                    else
                      Option.map
                        (fun n -> (cls, n))
                        (try_add g (E_cmp (op, List.map Option.get shrunk)))
                  | _ -> None)
                (nodes_of g input)
            | E_cmp (op, inputs) -> begin
              (* cmp(f, shrink(r, xs)) => shrink(r, cmp(f, xs)) *)
              let finite = List.filter (fun i -> not (is_infinite g i)) inputs in
              match finite with
              | [] -> []
              | f0 :: _ ->
                List.filter_map
                  (fun (_, rect) ->
                    let unshrunk =
                      List.map
                        (fun i ->
                          if is_infinite g i then Some i
                          else
                            List.find_map
                              (fun (src, r2) ->
                                if Symrect.equal rect r2 then Some src else None)
                              (shrinks_of g i))
                        inputs
                    in
                    if List.exists Option.is_none unshrunk then None
                    else
                      match try_add g (E_cmp (op, List.map Option.get unshrunk)) with
                      | None -> None
                      | Some inner ->
                        Option.map
                          (fun n -> (cls, n))
                          (try_add g (E_shrink { input = inner; rect })))
                  (shrinks_of g f0)
            end
            | _ -> []));
  }

let all_rules ~arrays =
  [
    rule_comm;
    rule_assoc;
    rule_factor;
    rule_mv_simplify;
    rule_hoist_mv;
    rule_sink_mv;
    rule_hoist_bc;
    rule_expand_tensor ~arrays;
    rule_shrink_shrink;
    rule_shrink_identity;
    rule_shrink_mv;
    rule_shrink_bc;
    rule_shrink_cmp;
  ]

let saturate ?(max_iters = 8) ?(node_limit = 20_000) ~arrays g =
  let rules = all_rules ~arrays in
  let rec go iter =
    if iter >= max_iters || node_count g > node_limit then iter
    else begin
      let changed = ref false in
      List.iter
        (fun r ->
          if node_count g <= node_limit then begin
            let unions = r.apply g in
            List.iter
              (fun (a, b) ->
                try if union g a b then changed := true
                with Failure _ -> ())
              unions;
            rebuild g
          end)
        rules;
      if !changed then go (iter + 1) else iter + 1
    end
  in
  go 0
