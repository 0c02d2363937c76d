type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---- printing (same canonical conventions as infs_trace) ---- *)

let fmt_float f =
  (* JSON has no lexeme for NaN or the infinities; printing them as [null]
     keeps [to_string] total and its output parseable by any JSON reader
     (the value round-trips as [Null], not as [Num]). *)
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let to_string v =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Num f -> Buffer.add_string b (fmt_float f)
    | Str s -> Buffer.add_string b (escape s)
    | Arr xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          go x)
        xs;
      Buffer.add_char b ']'
    | Obj fs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (escape k);
          Buffer.add_char b ':';
          go x)
        fs;
      Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

(* ---- parsing ---- *)

exception Bad of int * string

(* far above anything this repository writes (~6 levels), far below the
   nesting at which one parse of an untrusted line exhausts memory *)
let max_depth = 512

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail msg = raise (Bad (!pos, msg)) in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ lit)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
            if !pos + 4 >= n then fail "truncated \\u escape";
            let hex = String.sub s (!pos + 1) 4 in
            let code =
              try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
            in
            (* BMP only; encode as UTF-8 *)
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end;
            pos := !pos + 4
          | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          incr pos;
          go ()
        | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    let digits () =
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
        incr pos
      done
    in
    digits ();
    if peek () = Some '.' then begin
      incr pos;
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      incr pos;
      (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
      digits ()
    | _ -> ());
    if !pos = start then fail "expected a value";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('[' | '{') when depth >= max_depth ->
      fail (Printf.sprintf "nesting deeper than %d" max_depth)
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        Arr []
      end
      else begin
        let rec items acc =
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            items (v :: acc)
          | Some ']' ->
            incr pos;
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        Arr (items [])
      end
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            fields (kv :: acc)
          | Some '}' ->
            incr pos;
            List.rev (kv :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (fields [])
      end
    | Some _ -> Num (parse_number ())
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) ->
    Error (Printf.sprintf "json: %s at offset %d" msg at)

(* ---- accessors ---- *)

let member k = function Obj fs -> List.assoc_opt k fs | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_num = function Num f -> Some f | _ -> None

let to_int = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
let to_list = function Arr xs -> Some xs | _ -> None
