(* Summaries of repeated host-time samples: median and quartiles, and the
   tail percentile with at least ten samples beyond it (a p99 over 300
   samples would rest on three). *)

type t = { median : float; q25 : float; q75 : float; n : int }

let of_list xs =
  {
    median = Stats.median xs;
    q25 = Stats.quantile 0.25 xs;
    q75 = Stats.quantile 0.75 xs;
    n = List.length xs;
  }

(* interquartile range as a share of the median *)
let spread s = if s.median = 0.0 then 0.0 else (s.q75 -. s.q25) /. s.median

(* the highest quantile with >= 10 samples above it; the maximum when there
   are too few samples for any *)
let tail_q n = if n < 20 then 1.0 else 1.0 -. (10.0 /. float_of_int n)
let tail xs = Stats.quantile (tail_q (List.length xs)) xs
let tail_label n = Printf.sprintf "p%g" (Float.round (tail_q n *. 1000.0) /. 10.0)
