type index =
  | Aff of Symaff.t
  | Indirect of { array : string; indices : Symaff.t list }

type expr =
  | Load of { array : string; indices : index list }
  | Float_const of float
  | Scalar of string
  | Binop of Op.t * expr * expr
  | Unop of Op.t * expr

type loop = { ivar : string; lo : Symaff.t; hi : Symaff.t }

type kernel_stmt = {
  target : string;
  target_indices : index list;
  rhs : expr;
  accum : Op.t option;
}

type kernel = { kname : string; loops : loop list; body : kernel_stmt list }

type host_stmt =
  | Host_loop of loop * host_stmt list
  | Let_scalar of string * expr
  | Kernel of kernel

type array_decl = { aname : string; dtype : Dtype.t; dims : Symaff.t list }

type program = {
  name : string;
  params : string list;
  arrays : array_decl list;
  body : host_stmt list;
}

(* Construction helpers *)

let i = Symaff.var
let c = Symaff.const
let ( +! ) = Symaff.add
let ( -! ) = Symaff.sub
let ( +% ) = Symaff.add_const

let load array indices = Load { array; indices = List.map (fun a -> Aff a) indices }
let load_ix array indices = Load { array; indices }
let fconst f = Float_const f
let scalar s = Scalar s
let ( + ) a b = Binop (Op.Add, a, b)
let ( - ) a b = Binop (Op.Sub, a, b)
let ( * ) a b = Binop (Op.Mul, a, b)
let ( / ) a b = Binop (Op.Div, a, b)
let min_ a b = Binop (Op.Min, a, b)
let max_ a b = Binop (Op.Max, a, b)
let relu a = Unop (Op.Relu, a)
let sqrt_ a = Unop (Op.Sqrt, a)

let loop ivar lo hi = { ivar; lo; hi }

let store target indices rhs =
  { target; target_indices = List.map (fun a -> Aff a) indices; rhs; accum = None }

let store_ix target target_indices rhs = { target; target_indices; rhs; accum = None }

let accum op target indices rhs =
  { target; target_indices = List.map (fun a -> Aff a) indices; rhs; accum = Some op }

let accum_ix op target target_indices rhs = { target; target_indices; rhs; accum = Some op }

let kernel kname loops body = { kname; loops; body }

let array aname dtype dims = { aname; dtype; dims }

let program ~name ~params ~arrays body = { name; params; arrays; body }

(* Queries *)

let rec stmt_kernels = function
  | Host_loop (_, body) -> List.concat_map stmt_kernels body
  | Let_scalar _ -> []
  | Kernel k -> [ k ]

let kernels p = List.concat_map stmt_kernels p.body

let rec expr_loads = function
  | Load { array; indices } -> [ (array, indices) ]
  | Float_const _ | Scalar _ -> []
  | Binop (_, a, b) -> expr_loads a @ expr_loads b
  | Unop (_, a) -> expr_loads a

let rec expr_scalars = function
  | Scalar s -> [ s ]
  | Load _ | Float_const _ -> []
  | Binop (_, a, b) -> expr_scalars a @ expr_scalars b
  | Unop (_, a) -> expr_scalars a

let rec expr_ops = function
  | Load _ | Float_const _ | Scalar _ -> []
  | Binop (op, a, b) -> expr_ops a @ expr_ops b @ [ op ]
  | Unop (op, a) -> expr_ops a @ [ op ]

let kernel_flops_per_iter (k : kernel) =
  List.fold_left
    (fun acc st ->
      let rhs_ops = List.length (expr_ops st.rhs) in
      let accum_ops = match st.accum with Some _ -> 1 | None -> 0 in
      Stdlib.( + ) acc (Stdlib.( + ) rhs_ops accum_ops))
    0 k.body

let index_has_indirect = function Aff _ -> false | Indirect _ -> true

let kernel_has_indirect (k : kernel) =
  List.exists
    (fun st ->
      List.exists index_has_indirect st.target_indices
      || List.exists
           (fun (_, ixs) -> List.exists index_has_indirect ixs)
           (expr_loads st.rhs))
    k.body

(* Validation *)

module Sset = Set.Make (String)

let validate p =
  let ( let* ) r f = Result.bind r f in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let arrays = List.map (fun a -> (a.aname, List.length a.dims)) p.arrays in
  let param_set = Sset.of_list p.params in
  let find_array name = List.assoc_opt name arrays in
  let check_saff ~ivars a =
    let bad =
      List.filter
        (fun v -> (not (Sset.mem v param_set)) && not (Sset.mem v ivars))
        (Symaff.vars a)
    in
    match bad with
    | [] -> Ok ()
    | v :: _ -> err "unbound variable %s in affine expression %s" v (Symaff.to_string a)
  in
  let check_index ~ivars = function
    | Aff a -> check_saff ~ivars a
    | Indirect { array; indices } -> (
      match find_array array with
      | None -> err "indirect through undeclared array %s" array
      | Some rank when rank <> List.length indices ->
        err "indirect array %s rank mismatch" array
      | Some _ ->
        List.fold_left
          (fun acc a -> let* () = acc in check_saff ~ivars a)
          (Ok ()) indices)
  in
  let check_access ~ivars array indices =
    match find_array array with
    | None -> err "access to undeclared array %s" array
    | Some rank when rank <> List.length indices ->
      err "array %s accessed with %d indices, declared rank %d" array
        (List.length indices) rank
    | Some _ ->
      List.fold_left
        (fun acc ix -> let* () = acc in check_index ~ivars ix)
        (Ok ()) indices
  in
  let rec check_expr ~ivars ~scalars = function
    | Load { array; indices } -> check_access ~ivars array indices
    | Float_const _ -> Ok ()
    | Scalar s ->
      if Sset.mem s scalars then Ok () else err "unbound scalar %s" s
    | Binop (_, a, b) ->
      let* () = check_expr ~ivars ~scalars a in
      check_expr ~ivars ~scalars b
    | Unop (_, a) -> check_expr ~ivars ~scalars a
  in
  let check_kernel ~ivars ~scalars k =
    let names = List.map (fun l -> l.ivar) k.loops in
    let distinct = List.length (List.sort_uniq String.compare names) = List.length names in
    if not distinct then err "kernel %s: duplicate loop variables" k.kname
    else begin
      let* () =
        List.fold_left
          (fun acc l ->
            let* () = acc in
            let* () = check_saff ~ivars l.lo in
            check_saff ~ivars l.hi)
          (Ok ()) k.loops
        (* bounds of loop i may reference outer kernel ivars too; allow all *)
      in
      let ivars = List.fold_left (fun s n -> Sset.add n s) ivars names in
      List.fold_left
        (fun acc st ->
          let* () = acc in
          let* () = check_access ~ivars st.target st.target_indices in
          check_expr ~ivars ~scalars st.rhs)
        (Ok ()) k.body
    end
  in
  let rec check_stmt ~ivars ~scalars = function
    | [] -> Ok ()
    | Host_loop (l, body) :: rest ->
      let* () = check_saff ~ivars l.lo in
      let* () = check_saff ~ivars l.hi in
      let* () = check_stmt ~ivars:(Sset.add l.ivar ivars) ~scalars body in
      check_stmt ~ivars ~scalars rest
    | Let_scalar (name, e) :: rest ->
      let* () = check_expr ~ivars ~scalars e in
      check_stmt ~ivars ~scalars:(Sset.add name scalars) rest
    | Kernel k :: rest ->
      let* () = check_kernel ~ivars ~scalars k in
      check_stmt ~ivars ~scalars rest
  in
  (* the runtime finds a region, its plans and its JIT memo entries by
     kernel name: a name may recur for the same kernel (a repeated sweep
     is one region), never for two different ones *)
  let rec unique_kernels seen = function
    | [] -> Ok ()
    | k :: rest -> (
      match List.assoc_opt k.kname seen with
      | Some k0 when compare k0 k <> 0 -> err "duplicate kernel name %s" k.kname
      | Some _ -> unique_kernels seen rest
      | None -> unique_kernels ((k.kname, k) :: seen) rest)
  in
  let* () =
    List.fold_left
      (fun acc (a : array_decl) ->
        let* () = acc in
        List.fold_left
          (fun acc d -> let* () = acc in check_saff ~ivars:Sset.empty d)
          (Ok ()) a.dims)
      (Ok ()) p.arrays
  in
  let* () = unique_kernels [] (kernels p) in
  check_stmt ~ivars:Sset.empty ~scalars:Sset.empty p.body

(* Pretty-printing *)

let pp_index ppf = function
  | Aff a -> Format.fprintf ppf "[%s]" (Symaff.to_string a)
  | Indirect { array; indices } ->
    Format.fprintf ppf "[%s%s]" array
      (String.concat ""
         (List.map (fun a -> Printf.sprintf "[%s]" (Symaff.to_string a)) indices))

let rec pp_expr ppf = function
  | Load { array; indices } ->
    Format.fprintf ppf "%s%a" array
      (fun ppf -> List.iter (pp_index ppf))
      indices
  | Float_const f -> Format.fprintf ppf "%g" f
  | Scalar s -> Format.pp_print_string ppf s
  | Binop (op, a, b) ->
    Format.fprintf ppf "(%a %s %a)" pp_expr a (Op.to_string op) pp_expr b
  | Unop (op, a) -> Format.fprintf ppf "%s(%a)" (Op.to_string op) pp_expr a

let pp_kernel_stmt ppf st =
  Format.fprintf ppf "%s%a %s %a;" st.target
    (fun ppf -> List.iter (pp_index ppf))
    st.target_indices
    (match st.accum with Some op -> Op.to_string op ^ "=" | None -> "=")
    pp_expr st.rhs

let pp_loop ppf (l : loop) =
  Format.fprintf ppf "for %s in [%s, %s)" l.ivar (Symaff.to_string l.lo)
    (Symaff.to_string l.hi)

let rec pp_host ppf = function
  | Host_loop (l, body) ->
    Format.fprintf ppf "@[<v 2>%a {@,%a@]@,}" pp_loop l
      (Format.pp_print_list pp_host) body
  | Let_scalar (name, e) -> Format.fprintf ppf "let %s = %a;" name pp_expr e
  | Kernel k ->
    Format.fprintf ppf "@[<v 2>kernel %s %a {@,%a@]@,}" k.kname
      (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_loop)
      k.loops
      (Format.pp_print_list pp_kernel_stmt)
      k.body

let pp_program ppf p =
  Format.fprintf ppf "@[<v>program %s(%s)@," p.name (String.concat ", " p.params);
  List.iter
    (fun (a : array_decl) ->
      Format.fprintf ppf "%s %s%s;@," (Dtype.to_string a.dtype) a.aname
        (String.concat ""
           (List.map (fun d -> Printf.sprintf "[%s]" (Symaff.to_string d)) a.dims)))
    p.arrays;
  Format.pp_print_list pp_host ppf p.body;
  Format.fprintf ppf "@]"
