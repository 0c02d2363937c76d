(* Unit and property tests for the utility library. *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true (Rng.int64 a <> Rng.int64 b)

let test_rng_copy () =
  let a = Rng.create 7 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues" (Rng.int64 a) (Rng.int64 b)

let test_rng_shuffle_permutes () =
  let rng = Rng.create 3 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let test_rng_int_unbiased () =
  (* bound = 3 * 2^60 does not divide the 2^62 draw range: the old
     [bits mod bound] gave values below 2^60 probability 1/2 instead of
     1/3. With 3000 draws the uniform fraction is 1/3 +- ~0.03, so 0.40
     cleanly separates the distributions. *)
  let bound = 3 * (1 lsl 60) in
  let rng = Rng.create 9001 in
  let n = 3000 in
  let low = ref 0 in
  for _ = 1 to n do
    let v = Rng.int rng bound in
    if v < 0 || v >= bound then Alcotest.fail "out of bounds";
    if v < 1 lsl 60 then incr low
  done;
  let frac = float_of_int !low /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "low-third fraction %.3f stays near 1/3" frac)
    true
    (frac > 0.26 && frac < 0.40)

let prop_rng_float_bounds =
  QCheck.Test.make ~name:"Rng.float stays in bounds" ~count:500
    QCheck.(pair small_int (float_range 0.1 100.0))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.float rng bound in
      v >= 0.0 && v < bound)

let feq = Alcotest.float 1e-9

let test_stats () =
  Alcotest.check feq "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.check feq "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  Alcotest.check feq "median odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check feq "median even" 1.5 (Stats.median [ 1.0; 2.0 ]);
  Alcotest.check feq "empty mean" 0.0 (Stats.mean []);
  Alcotest.check feq "geomean skips nonpositive" 2.0 (Stats.geomean [ 2.0; -1.0; 0.0 ]);
  Alcotest.check feq "ratio by zero" 0.0 (Stats.ratio 1.0 0.0);
  Alcotest.check feq "percent" 50.0 (Stats.percent ~part:1.0 ~whole:2.0)

let test_stats_stddev () =
  Alcotest.check (Alcotest.float 1e-6) "stddev" 2.0
    (Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])

let test_stats_quantile () =
  let xs = [ 3.0; 1.0; 2.0; 4.0 ] in
  Alcotest.check feq "q0 is min" 1.0 (Stats.quantile 0.0 xs);
  Alcotest.check feq "q1 is max" 4.0 (Stats.quantile 1.0 xs);
  Alcotest.check feq "q0.5 agrees with median" (Stats.median xs)
    (Stats.quantile 0.5 xs);
  Alcotest.check feq "type-7 interpolation" 1.75 (Stats.quantile 0.25 xs);
  Alcotest.check feq "clamped above" 4.0 (Stats.quantile 2.0 xs);
  Alcotest.check feq "clamped below" 1.0 (Stats.quantile (-1.0) xs);
  Alcotest.check feq "empty" 0.0 (Stats.quantile 0.5 [])

let test_stats_histogram () =
  let lo, hi, counts = Stats.histogram ~buckets:4 [ 0.0; 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.check feq "lo" 0.0 lo;
  Alcotest.check feq "hi" 4.0 hi;
  Alcotest.(check (array int)) "max lands in the last bucket"
    [| 1; 1; 1; 2 |] counts;
  let _, _, c1 = Stats.histogram ~buckets:3 [ 5.0; 5.0 ] in
  Alcotest.(check (array int)) "degenerate range -> bucket 0" [| 2; 0; 0 |] c1;
  let lo, hi, c2 = Stats.histogram ~buckets:2 [] in
  Alcotest.check feq "empty lo" 0.0 lo;
  Alcotest.check feq "empty hi" 0.0 hi;
  Alcotest.(check (array int)) "empty counts" [| 0; 0 |] c2

let test_stats_nan_safe () =
  (* a NaN (or infinity) in the sample must not scramble the ranking:
     non-finite values are dropped before sorting with Float.compare *)
  let dirty = [ 3.0; nan; 1.0; infinity; 2.0; neg_infinity; 4.0 ] in
  let clean = [ 3.0; 1.0; 2.0; 4.0 ] in
  Alcotest.check feq "median ignores non-finite" (Stats.median clean)
    (Stats.median dirty);
  Alcotest.check feq "quantile ignores non-finite"
    (Stats.quantile 0.95 clean) (Stats.quantile 0.95 dirty);
  Alcotest.(check bool) "median of dirty list is finite" true
    (Float.is_finite (Stats.median dirty));
  Alcotest.check feq "all-NaN median is 0" 0.0 (Stats.median [ nan; nan ]);
  let lo, hi, counts = Stats.histogram ~buckets:4 (nan :: [ 0.0; 1.0; 2.0; 3.0; 4.0 ]) in
  Alcotest.check feq "histogram lo unpoisoned" 0.0 lo;
  Alcotest.check feq "histogram hi unpoisoned" 4.0 hi;
  Alcotest.(check int) "histogram counts only finite samples" 5
    (Array.fold_left ( + ) 0 counts)

let test_stats_minmax_nan_safe () =
  (* min/max share quantile's finite filtering: one NaN latency sample
     must not poison the reported max while p99 looks healthy *)
  let dirty = [ 3.0; nan; 1.0; infinity; 2.0; neg_infinity; 4.0 ] in
  Alcotest.check feq "minimum ignores non-finite" 1.0 (Stats.minimum dirty);
  Alcotest.check feq "maximum ignores non-finite" 4.0 (Stats.maximum dirty);
  Alcotest.(check bool) "maximum with NaN tail is finite" true
    (Float.is_finite (Stats.maximum [ 2.0; nan ]));
  Alcotest.check feq "NaN-leading fold is unpoisoned" 2.0
    (Stats.maximum [ nan; 2.0; 1.0 ]);
  Alcotest.check feq "all-non-finite maximum is 0" 0.0
    (Stats.maximum [ nan; infinity ]);
  Alcotest.check feq "empty minimum is 0" 0.0 (Stats.minimum []);
  (* max never below p99 on the same sample: the regression this guards —
     NaN max with healthy quantiles — inverts this ordering *)
  let sample = [ 5.0; 1.0; nan; 9.0; 3.0 ] in
  Alcotest.(check bool) "max >= p99 on a dirty sample" true
    (Stats.maximum sample >= Stats.quantile 0.99 sample)

let prop_quantile_monotone =
  QCheck.Test.make ~name:"Stats.quantile is monotone in q" ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 30) (float_range (-1e6) 1e6))
        (pair (float_range 0.0 1.0) (float_range 0.0 1.0)))
    (fun (xs, (q1, q2)) ->
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      Stats.quantile lo xs <= Stats.quantile hi xs)

let prop_histogram_total =
  QCheck.Test.make ~name:"Stats.histogram counts sum to n" ~count:300
    QCheck.(
      pair (int_range 1 16)
        (list_of_size Gen.(int_range 0 50) (float_range (-1e6) 1e6)))
    (fun (buckets, xs) ->
      let _, _, counts = Stats.histogram ~buckets xs in
      Array.fold_left ( + ) 0 counts = List.length xs)

let test_json_float_total () =
  Alcotest.(check string) "nan prints as null" "null" (Json.fmt_float nan);
  Alcotest.(check string) "inf prints as null" "null" (Json.fmt_float infinity);
  Alcotest.(check string) "-inf prints as null" "null"
    (Json.fmt_float neg_infinity);
  Alcotest.(check string) "integral" "3" (Json.fmt_float 3.0);
  (* a document carrying a non-finite number stays parseable and the
     value round-trips as Null *)
  match Json.parse (Json.to_string (Json.Obj [ ("x", Json.Num infinity) ])) with
  | Error e -> Alcotest.failf "non-finite document unparseable: %s" e
  | Ok j ->
    Alcotest.(check bool) "round-trips as Null" true
      (Json.member "x" j = Some Json.Null)

let prop_json_float_roundtrip =
  QCheck.Test.make ~name:"Json.fmt_float round-trips finite floats" ~count:500
    QCheck.float (fun f ->
      if Float.is_finite f then float_of_string (Json.fmt_float f) = f
      else Json.fmt_float f = "null")

(* ---- Clock: monotonic clamp ---- *)

let test_clock_monotonic () =
  (* a simulated backwards wall-clock step (NTP) must never yield a
     negative span: the clamp freezes the clock until raw time catches
     up *)
  let timeline = ref [ 100.0; 100.5; 99.0; 99.5; 100.25; 101.0 ] in
  let raw () =
    match !timeline with
    | [] -> 102.0
    | x :: r ->
      timeline := r;
      x
  in
  Fun.protect
    ~finally:(fun () -> Clock.set_raw_source None)
    (fun () ->
      Clock.set_raw_source (Some raw);
      let samples = List.init 6 (fun _ -> Clock.now ()) in
      let rec spans = function
        | a :: (b :: _ as r) -> (b -. a) :: spans r
        | _ -> []
      in
      List.iteri
        (fun i s ->
          Alcotest.(check bool)
            (Printf.sprintf "span %d is non-negative" i)
            true (s >= 0.0))
        (spans samples);
      (* the clamp holds the high-water mark through the backwards step *)
      Alcotest.check feq "clamped at the pre-step maximum" 100.5
        (List.nth samples 2);
      (* and releases once raw time passes it again *)
      Alcotest.check feq "resumes when raw time catches up" 101.0
        (List.nth samples 5);
      Alcotest.(check bool) "ns mirror agrees" true (Clock.now_ns () >= 101.0 *. 1e9))

(* ---- Vec: clear must not retain elements ---- *)

(* allocate behind a function boundary so the local binding cannot keep
   the element alive past the push *)
let[@inline never] vec_push_tracked v w =
  let big = Array.make 4096 7 in
  Vec.push v big;
  Weak.set w 0 (Some big)

let test_vec_clear_releases () =
  let v = Vec.create () in
  let w = Weak.create 1 in
  vec_push_tracked v w;
  Vec.push v [| 1 |];
  Alcotest.(check int) "two elements" 2 (Vec.length v);
  Alcotest.(check bool) "tracked element live before clear" true
    (Weak.get w 0 <> None);
  Vec.clear v;
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool)
    "cleared element is collectable (no retention in spare capacity)" true
    (Weak.get w 0 = None);
  (* the vector is reusable after a clear *)
  Vec.push v [| 2 |];
  Alcotest.(check int) "push after clear" 1 (Vec.length v);
  Alcotest.(check int) "element readable" 2 (Vec.get v 0).(0)

let test_table_render () =
  let t = Table.create ~title:"t" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "x"; "y" ];
  let _ = Table.add_float_row t "row" [ 1.5; 2.0 ] in
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0);
  Alcotest.(check bool) "contains row" true
    (String.split_on_char '\n' s |> List.exists (fun l -> l = "| x   | y   |    |"
                                                          || String.length l > 0))

let test_table_float_fmt () =
  Alcotest.(check string) "integer-valued" "2" (Table.fmt_float 2.0);
  Alcotest.(check string) "zero" "0" (Table.fmt_float 0.0);
  Alcotest.(check string) "small" "1.500e-04" (Table.fmt_float 0.00015);
  Alcotest.(check string) "fraction" "1.250" (Table.fmt_float 1.25)

(* 512 levels parse; the 513th is rejected with an offset-carrying error
   instead of recursing without bound on an untrusted line *)
let test_json_depth_cap () =
  let nested d = String.make d '[' ^ String.make d ']' in
  Alcotest.(check bool) "depth 512 parses" true (Result.is_ok (Json.parse (nested 512)));
  Alcotest.(check bool) "object nesting counts too" true
    (Result.is_error (Json.parse (String.concat "" (List.init 513 (fun _ -> {|{"a":|})))));
  match Json.parse (nested 513) with
  | Ok _ -> Alcotest.fail "depth 513 accepted"
  | Error e ->
    Alcotest.(check string) "structured error" "json: nesting deeper than 512 at offset 512" e

let suite =
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng seeds differ", `Quick, test_rng_seeds_differ);
    ("rng copy", `Quick, test_rng_copy);
    ("rng shuffle permutes", `Quick, test_rng_shuffle_permutes);
    ("rng int is unbiased", `Quick, test_rng_int_unbiased);
    QCheck_alcotest.to_alcotest ~rand:(Qcheck_seed.rand ()) prop_rng_int_bounds;
    QCheck_alcotest.to_alcotest ~rand:(Qcheck_seed.rand ()) prop_rng_float_bounds;
    ("stats basics", `Quick, test_stats);
    ("stats stddev", `Quick, test_stats_stddev);
    ("stats quantile", `Quick, test_stats_quantile);
    ("stats histogram", `Quick, test_stats_histogram);
    ("stats nan safety", `Quick, test_stats_nan_safe);
    ("stats min/max nan safety", `Quick, test_stats_minmax_nan_safe);
    ("clock monotonic clamp", `Quick, test_clock_monotonic);
    ("vec clear releases elements", `Quick, test_vec_clear_releases);
    QCheck_alcotest.to_alcotest ~rand:(Qcheck_seed.rand ()) prop_quantile_monotone;
    QCheck_alcotest.to_alcotest ~rand:(Qcheck_seed.rand ()) prop_histogram_total;
    ("json float is total", `Quick, test_json_float_total);
    QCheck_alcotest.to_alcotest ~rand:(Qcheck_seed.rand ()) prop_json_float_roundtrip;
    ("json nesting depth cap", `Quick, test_json_depth_cap);
    ("table render", `Quick, test_table_render);
    ("table float format", `Quick, test_table_float_fmt);
  ]
