(** Monotonic clock and growable sample vectors with order statistics. *)

let now () : int = Int64.to_int (Monotonic_clock.now ())
(** Nanoseconds on CLOCK_MONOTONIC. *)

type t = { mutable a : int array; mutable n : int }

let create () = { a = Array.make 256 0; n = 0 }
let length t = t.n

let add t x =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0 in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- x;
  t.n <- t.n + 1

(** Nearest-rank quantile ([q] in \[0,1\]) of the samples from index
    [from] on; [nan] when there are none. *)
let quantile ?(from = 0) t q =
  let n = t.n - from in
  if n <= 0 then Float.nan
  else begin
    let s = Array.sub t.a from n in
    Array.sort compare s;
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    float_of_int s.(max 0 (min (n - 1) i))
  end

let median t = quantile t 0.5

(** All samples of [ts], in order. *)
let concat ts =
  let out = create () in
  List.iter (fun t -> for i = 0 to t.n - 1 do add out t.a.(i) done) ts;
  out

(** Fewest samples that put ten beyond the 99th percentile. *)
let p99_min = 1000

(** The 99th percentile of the samples from index [from] on, or [nan]
    when fewer than ten samples lie beyond it. *)
let p99 ?(from = 0) t =
  if t.n - from < p99_min then Float.nan else quantile ~from t 0.99

(** Upper median of a float list; [nan] when empty. *)
let median_floats l =
  match List.sort compare l with
  | [] -> Float.nan
  | s -> List.nth s (((List.length s + 1) / 2) - 1)
