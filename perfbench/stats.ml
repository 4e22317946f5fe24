(* Summaries of one run's samples. *)

(* Nearest-rank percentile: the smallest sample such that at least
   [p] percent of the samples are at or below it. *)
let percentile p samples =
  match List.sort Float.compare samples with
  | [] -> invalid_arg "Stats.percentile: no samples"
  | sorted ->
      let n = List.length sorted in
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
      List.nth sorted (max 0 (min (n - 1) (rank - 1)))

(* The Harrell-Davis estimate of the [p]th percentile (Biometrika 69,
   1982): a weighted mean of every sample in sorted order, the i-th of
   n weighted by the mass the Beta((n+1)p, (n+1)(1-p)) distribution puts
   on [(i-1)/n, i/n]. It estimates the same quantile as the nearest
   rank does, but the samples around that rank share its weight, so it
   does not jump from one operation's time to the next one's when the
   rank moves by one sample. The density is integrated by the midpoint
   rule, in logarithms and up to its constant factor, which the
   normalisation cancels. *)
let harrell_davis p samples =
  let sorted = Array.of_list (List.sort Float.compare samples) in
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.harrell_davis: no samples";
  let q = p /. 100. in
  if q <= 0. then sorted.(0)
  else if q >= 1. then sorted.(n - 1)
  else begin
    let a = float_of_int (n + 1) *. q and b = float_of_int (n + 1) *. (1. -. q) in
    let steps = 16 in
    let h = 1. /. float_of_int (n * steps) in
    let log_density j =
      let x = (float_of_int j +. 0.5) *. h in
      ((a -. 1.) *. log x) +. ((b -. 1.) *. log (1. -. x))
    in
    let logs = Array.init (n * steps) log_density in
    let top = Array.fold_left Float.max neg_infinity logs in
    let weight = Array.make n 0. in
    Array.iteri (fun j l -> weight.(j / steps) <- weight.(j / steps) +. exp (l -. top)) logs;
    let total = Array.fold_left ( +. ) 0. weight in
    let acc = ref 0. in
    Array.iteri (fun i w -> acc := !acc +. (w *. sorted.(i))) weight;
    !acc /. total
  end

(* The time of one pass over the operation list, taking each
   operation's fastest repetition: a slow episode of the host has to
   cover every repetition of an operation to move it. *)
let fastest_pass (repetitions : float list list) =
  List.fold_left
    (fun acc reps ->
      match reps with
      | [] -> invalid_arg "Stats.fastest_pass: an operation has no samples"
      | r :: rest -> acc +. List.fold_left Float.min r rest)
    0. repetitions
