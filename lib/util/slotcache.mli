(** Fixed-size, direct-mapped memo caches for results that are reused
    only over a short distance — typically within one channel payment.

    A key hashes to exactly one slot; a miss computes the value and
    overwrites whatever the slot held. The cache never grows and never
    resets wholesale, so an entry lives only until a colliding key
    replaces it. Sized to the handful of entries one payment reuses, a
    payment's bodies, scripts and challenges die in the minor heap
    instead of being retained (and promoted) for thousands of payments
    the way a large table would keep them. Losing an entry only costs a
    recomputation, never correctness: a lookup always returns [f k]. *)

type ('k, 'v) t

val create : ?hash:('k -> int) -> int -> ('k, 'v) t
(** [create n] has [n] slots; [n] must be a positive power of two.
    Keys are compared structurally; [hash] (default [Hashtbl.hash])
    picks the slot, and tests pass one to force collisions.
    @raise Invalid_argument otherwise. *)

val find_or_add : ('k, 'v) t -> ('k -> 'v) -> 'k -> 'v
(** [find_or_add t f k] is the cached value of [k] if [k]'s slot holds
    it, and otherwise [f k], which then replaces the slot's entry. *)

val domain_local : int -> ('k -> 'v) -> 'k -> 'v
(** [domain_local n] is a memo function over one [n]-slot cache per
    domain: [domain_local n f k] = [find_or_add (this domain's cache) f k].
    Per-domain caches let Dpool worker domains use it without
    synchronisation. *)
