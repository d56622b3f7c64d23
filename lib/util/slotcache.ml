type ('k, 'v) slot = Empty | Full of 'k * 'v

type ('k, 'v) t = { slots : ('k, 'v) slot array; hash : 'k -> int }

let check_size (n : int) : unit =
  if n <= 0 || n land (n - 1) <> 0 then invalid_arg "Slotcache.create"

let create ?(hash = Hashtbl.hash) (n : int) : ('k, 'v) t =
  check_size n;
  { slots = Array.make n Empty; hash }

let find_or_add (t : ('k, 'v) t) (f : 'k -> 'v) (k : 'k) : 'v =
  let i = t.hash k land (Array.length t.slots - 1) in
  match Array.unsafe_get t.slots i with
  | Full (k', v) when k = k' -> v
  | _ ->
      let v = f k in
      Array.unsafe_set t.slots i (Full (k, v));
      v

let domain_local (n : int) : ('k -> 'v) -> 'k -> 'v =
  check_size n;
  let key = Domain.DLS.new_key (fun () -> create n) in
  fun f k -> find_or_add (Domain.DLS.get key) f k
