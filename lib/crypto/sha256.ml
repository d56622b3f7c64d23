(** SHA-256 (FIPS 180-4), pure OCaml.

    The chaining value is kept as eight 32-bit words in native ints;
    the compression function works on unboxed [nativeint]s. Verified in
    the test suite against the FIPS/NIST vectors and a textbook
    reference. *)

(* The compression kernel works on unboxed [nativeint]s: ocamlopt keeps
   let-bound [nativeint] values that never escape in registers (or
   unboxed stack slots), so the 64 rounds below, written out straight
   with every working variable and schedule word let-bound, run without
   allocating. Without flambda, a loop would box them: [nativeint] refs
   and the arguments of a recursive call are heap blocks. Untagged
   words also spare the tag arithmetic of every operation.

   Words are 32-bit values in the low half of a 64-bit nativeint.
   Rotations use the duplicate-word trick: for a 32-bit x, the value
   x | (x lsl 32) carries every rotation of x as a 32-bit window, so a
   three-rotation sigma is three shifts and two xors. The sigmas leave
   garbage above bit 31; sums are taken mod 2^64 and only the words that
   feed a rotation or a boolean function (new a, new e, schedule words)
   are masked back to 32 bits. *)
module N = struct
  external ( + ) : nativeint -> nativeint -> nativeint = "%nativeint_add"
  external ( land ) : nativeint -> nativeint -> nativeint = "%nativeint_and"
  external ( lor ) : nativeint -> nativeint -> nativeint = "%nativeint_or"
  external ( lxor ) : nativeint -> nativeint -> nativeint = "%nativeint_xor"
  external ( lsl ) : nativeint -> int -> nativeint = "%nativeint_lsl"
  external ( lsr ) : nativeint -> int -> nativeint = "%nativeint_lsr"
  external of_int : int -> nativeint = "%nativeint_of_int"
  external to_int : nativeint -> int = "%nativeint_to_int"
  external of_int32 : int32 -> nativeint = "%nativeint_of_int32"
  external get32u : string -> int -> int32 = "%caml_string_get32u"
  external bswap32 : int32 -> int32 = "%bswap_int32"

  let mask = 0xffffffffn

  (* big-endian 32-bit load of [s] at [off + k], no bounds check
     (callers pass whole blocks) *)
  let[@inline] load (s : string) (off : int) (k : int) : nativeint =
    let v = get32u s (Stdlib.( + ) off k) in
    of_int32 (if Sys.big_endian then v else bswap32 v) land mask

  let[@inline] dup x = x lor (x lsl 32)

  let[@inline] big_s0 a =
    let d = dup a in
    (d lsr 2) lxor (d lsr 13) lxor (d lsr 22)

  let[@inline] big_s1 e =
    let d = dup e in
    (d lsr 6) lxor (d lsr 11) lxor (d lsr 25)

  let[@inline] small_s0 x =
    let d = dup x in
    (d lsr 7) lxor (d lsr 18) lxor (x lsr 3)

  let[@inline] small_s1 x =
    let d = dup x in
    (d lsr 17) lxor (d lsr 19) lxor (x lsr 10)

  (* ch = (e & f) ^ (~e & g), rewritten to need no 32-bit not *)
  let[@inline] ch e f g = g lxor (e land (f lxor g))

  (* maj = (a & b) ^ (a & c) ^ (b & c), one and fewer *)
  let[@inline] maj a b c = (a land b) lxor (c land (a lxor b))
end

(** [compress hv block off] absorbs the 64-byte block of [block] at [off]
    into the chaining value [hv] (eight 32-bit words in native ints).
    Offsets are validated by the callers. Each round writes only the
    two variables whose roles change (d and h); the eight names then
    rotate roles from one round to the next. *)
let compress (hv : int array) (block : string) (off : int) : unit =
  let open N in
  let a = of_int (Array.unsafe_get hv 0) and b = of_int (Array.unsafe_get hv 1)
  and c = of_int (Array.unsafe_get hv 2) and d = of_int (Array.unsafe_get hv 3)
  and e = of_int (Array.unsafe_get hv 4) and f = of_int (Array.unsafe_get hv 5)
  and g = of_int (Array.unsafe_get hv 6) and h = of_int (Array.unsafe_get hv 7) in
  let w0 = load block off 0 in
  let w1 = load block off 4 in
  let w2 = load block off 8 in
  let w3 = load block off 12 in
  let w4 = load block off 16 in
  let w5 = load block off 20 in
  let w6 = load block off 24 in
  let w7 = load block off 28 in
  let w8 = load block off 32 in
  let w9 = load block off 36 in
  let w10 = load block off 40 in
  let w11 = load block off 44 in
  let w12 = load block off 48 in
  let w13 = load block off 52 in
  let w14 = load block off 56 in
  let w15 = load block off 60 in
  let t1 = h + big_s1 e + ch e f g + 0x428a2f98n + w0 in
  let d = (d + t1) land mask in
  let h = (t1 + big_s0 a + maj a b c) land mask in
  let t1 = g + big_s1 d + ch d e f + 0x71374491n + w1 in
  let c = (c + t1) land mask in
  let g = (t1 + big_s0 h + maj h a b) land mask in
  let t1 = f + big_s1 c + ch c d e + 0xb5c0fbcfn + w2 in
  let b = (b + t1) land mask in
  let f = (t1 + big_s0 g + maj g h a) land mask in
  let t1 = e + big_s1 b + ch b c d + 0xe9b5dba5n + w3 in
  let a = (a + t1) land mask in
  let e = (t1 + big_s0 f + maj f g h) land mask in
  let t1 = d + big_s1 a + ch a b c + 0x3956c25bn + w4 in
  let h = (h + t1) land mask in
  let d = (t1 + big_s0 e + maj e f g) land mask in
  let t1 = c + big_s1 h + ch h a b + 0x59f111f1n + w5 in
  let g = (g + t1) land mask in
  let c = (t1 + big_s0 d + maj d e f) land mask in
  let t1 = b + big_s1 g + ch g h a + 0x923f82a4n + w6 in
  let f = (f + t1) land mask in
  let b = (t1 + big_s0 c + maj c d e) land mask in
  let t1 = a + big_s1 f + ch f g h + 0xab1c5ed5n + w7 in
  let e = (e + t1) land mask in
  let a = (t1 + big_s0 b + maj b c d) land mask in
  let t1 = h + big_s1 e + ch e f g + 0xd807aa98n + w8 in
  let d = (d + t1) land mask in
  let h = (t1 + big_s0 a + maj a b c) land mask in
  let t1 = g + big_s1 d + ch d e f + 0x12835b01n + w9 in
  let c = (c + t1) land mask in
  let g = (t1 + big_s0 h + maj h a b) land mask in
  let t1 = f + big_s1 c + ch c d e + 0x243185ben + w10 in
  let b = (b + t1) land mask in
  let f = (t1 + big_s0 g + maj g h a) land mask in
  let t1 = e + big_s1 b + ch b c d + 0x550c7dc3n + w11 in
  let a = (a + t1) land mask in
  let e = (t1 + big_s0 f + maj f g h) land mask in
  let t1 = d + big_s1 a + ch a b c + 0x72be5d74n + w12 in
  let h = (h + t1) land mask in
  let d = (t1 + big_s0 e + maj e f g) land mask in
  let t1 = c + big_s1 h + ch h a b + 0x80deb1fen + w13 in
  let g = (g + t1) land mask in
  let c = (t1 + big_s0 d + maj d e f) land mask in
  let t1 = b + big_s1 g + ch g h a + 0x9bdc06a7n + w14 in
  let f = (f + t1) land mask in
  let b = (t1 + big_s0 c + maj c d e) land mask in
  let t1 = a + big_s1 f + ch f g h + 0xc19bf174n + w15 in
  let e = (e + t1) land mask in
  let a = (t1 + big_s0 b + maj b c d) land mask in
  let w16 = (small_s1 w14 + w9 + small_s0 w1 + w0) land mask in
  let t1 = h + big_s1 e + ch e f g + 0xe49b69c1n + w16 in
  let d = (d + t1) land mask in
  let h = (t1 + big_s0 a + maj a b c) land mask in
  let w17 = (small_s1 w15 + w10 + small_s0 w2 + w1) land mask in
  let t1 = g + big_s1 d + ch d e f + 0xefbe4786n + w17 in
  let c = (c + t1) land mask in
  let g = (t1 + big_s0 h + maj h a b) land mask in
  let w18 = (small_s1 w16 + w11 + small_s0 w3 + w2) land mask in
  let t1 = f + big_s1 c + ch c d e + 0x0fc19dc6n + w18 in
  let b = (b + t1) land mask in
  let f = (t1 + big_s0 g + maj g h a) land mask in
  let w19 = (small_s1 w17 + w12 + small_s0 w4 + w3) land mask in
  let t1 = e + big_s1 b + ch b c d + 0x240ca1ccn + w19 in
  let a = (a + t1) land mask in
  let e = (t1 + big_s0 f + maj f g h) land mask in
  let w20 = (small_s1 w18 + w13 + small_s0 w5 + w4) land mask in
  let t1 = d + big_s1 a + ch a b c + 0x2de92c6fn + w20 in
  let h = (h + t1) land mask in
  let d = (t1 + big_s0 e + maj e f g) land mask in
  let w21 = (small_s1 w19 + w14 + small_s0 w6 + w5) land mask in
  let t1 = c + big_s1 h + ch h a b + 0x4a7484aan + w21 in
  let g = (g + t1) land mask in
  let c = (t1 + big_s0 d + maj d e f) land mask in
  let w22 = (small_s1 w20 + w15 + small_s0 w7 + w6) land mask in
  let t1 = b + big_s1 g + ch g h a + 0x5cb0a9dcn + w22 in
  let f = (f + t1) land mask in
  let b = (t1 + big_s0 c + maj c d e) land mask in
  let w23 = (small_s1 w21 + w16 + small_s0 w8 + w7) land mask in
  let t1 = a + big_s1 f + ch f g h + 0x76f988dan + w23 in
  let e = (e + t1) land mask in
  let a = (t1 + big_s0 b + maj b c d) land mask in
  let w24 = (small_s1 w22 + w17 + small_s0 w9 + w8) land mask in
  let t1 = h + big_s1 e + ch e f g + 0x983e5152n + w24 in
  let d = (d + t1) land mask in
  let h = (t1 + big_s0 a + maj a b c) land mask in
  let w25 = (small_s1 w23 + w18 + small_s0 w10 + w9) land mask in
  let t1 = g + big_s1 d + ch d e f + 0xa831c66dn + w25 in
  let c = (c + t1) land mask in
  let g = (t1 + big_s0 h + maj h a b) land mask in
  let w26 = (small_s1 w24 + w19 + small_s0 w11 + w10) land mask in
  let t1 = f + big_s1 c + ch c d e + 0xb00327c8n + w26 in
  let b = (b + t1) land mask in
  let f = (t1 + big_s0 g + maj g h a) land mask in
  let w27 = (small_s1 w25 + w20 + small_s0 w12 + w11) land mask in
  let t1 = e + big_s1 b + ch b c d + 0xbf597fc7n + w27 in
  let a = (a + t1) land mask in
  let e = (t1 + big_s0 f + maj f g h) land mask in
  let w28 = (small_s1 w26 + w21 + small_s0 w13 + w12) land mask in
  let t1 = d + big_s1 a + ch a b c + 0xc6e00bf3n + w28 in
  let h = (h + t1) land mask in
  let d = (t1 + big_s0 e + maj e f g) land mask in
  let w29 = (small_s1 w27 + w22 + small_s0 w14 + w13) land mask in
  let t1 = c + big_s1 h + ch h a b + 0xd5a79147n + w29 in
  let g = (g + t1) land mask in
  let c = (t1 + big_s0 d + maj d e f) land mask in
  let w30 = (small_s1 w28 + w23 + small_s0 w15 + w14) land mask in
  let t1 = b + big_s1 g + ch g h a + 0x06ca6351n + w30 in
  let f = (f + t1) land mask in
  let b = (t1 + big_s0 c + maj c d e) land mask in
  let w31 = (small_s1 w29 + w24 + small_s0 w16 + w15) land mask in
  let t1 = a + big_s1 f + ch f g h + 0x14292967n + w31 in
  let e = (e + t1) land mask in
  let a = (t1 + big_s0 b + maj b c d) land mask in
  let w32 = (small_s1 w30 + w25 + small_s0 w17 + w16) land mask in
  let t1 = h + big_s1 e + ch e f g + 0x27b70a85n + w32 in
  let d = (d + t1) land mask in
  let h = (t1 + big_s0 a + maj a b c) land mask in
  let w33 = (small_s1 w31 + w26 + small_s0 w18 + w17) land mask in
  let t1 = g + big_s1 d + ch d e f + 0x2e1b2138n + w33 in
  let c = (c + t1) land mask in
  let g = (t1 + big_s0 h + maj h a b) land mask in
  let w34 = (small_s1 w32 + w27 + small_s0 w19 + w18) land mask in
  let t1 = f + big_s1 c + ch c d e + 0x4d2c6dfcn + w34 in
  let b = (b + t1) land mask in
  let f = (t1 + big_s0 g + maj g h a) land mask in
  let w35 = (small_s1 w33 + w28 + small_s0 w20 + w19) land mask in
  let t1 = e + big_s1 b + ch b c d + 0x53380d13n + w35 in
  let a = (a + t1) land mask in
  let e = (t1 + big_s0 f + maj f g h) land mask in
  let w36 = (small_s1 w34 + w29 + small_s0 w21 + w20) land mask in
  let t1 = d + big_s1 a + ch a b c + 0x650a7354n + w36 in
  let h = (h + t1) land mask in
  let d = (t1 + big_s0 e + maj e f g) land mask in
  let w37 = (small_s1 w35 + w30 + small_s0 w22 + w21) land mask in
  let t1 = c + big_s1 h + ch h a b + 0x766a0abbn + w37 in
  let g = (g + t1) land mask in
  let c = (t1 + big_s0 d + maj d e f) land mask in
  let w38 = (small_s1 w36 + w31 + small_s0 w23 + w22) land mask in
  let t1 = b + big_s1 g + ch g h a + 0x81c2c92en + w38 in
  let f = (f + t1) land mask in
  let b = (t1 + big_s0 c + maj c d e) land mask in
  let w39 = (small_s1 w37 + w32 + small_s0 w24 + w23) land mask in
  let t1 = a + big_s1 f + ch f g h + 0x92722c85n + w39 in
  let e = (e + t1) land mask in
  let a = (t1 + big_s0 b + maj b c d) land mask in
  let w40 = (small_s1 w38 + w33 + small_s0 w25 + w24) land mask in
  let t1 = h + big_s1 e + ch e f g + 0xa2bfe8a1n + w40 in
  let d = (d + t1) land mask in
  let h = (t1 + big_s0 a + maj a b c) land mask in
  let w41 = (small_s1 w39 + w34 + small_s0 w26 + w25) land mask in
  let t1 = g + big_s1 d + ch d e f + 0xa81a664bn + w41 in
  let c = (c + t1) land mask in
  let g = (t1 + big_s0 h + maj h a b) land mask in
  let w42 = (small_s1 w40 + w35 + small_s0 w27 + w26) land mask in
  let t1 = f + big_s1 c + ch c d e + 0xc24b8b70n + w42 in
  let b = (b + t1) land mask in
  let f = (t1 + big_s0 g + maj g h a) land mask in
  let w43 = (small_s1 w41 + w36 + small_s0 w28 + w27) land mask in
  let t1 = e + big_s1 b + ch b c d + 0xc76c51a3n + w43 in
  let a = (a + t1) land mask in
  let e = (t1 + big_s0 f + maj f g h) land mask in
  let w44 = (small_s1 w42 + w37 + small_s0 w29 + w28) land mask in
  let t1 = d + big_s1 a + ch a b c + 0xd192e819n + w44 in
  let h = (h + t1) land mask in
  let d = (t1 + big_s0 e + maj e f g) land mask in
  let w45 = (small_s1 w43 + w38 + small_s0 w30 + w29) land mask in
  let t1 = c + big_s1 h + ch h a b + 0xd6990624n + w45 in
  let g = (g + t1) land mask in
  let c = (t1 + big_s0 d + maj d e f) land mask in
  let w46 = (small_s1 w44 + w39 + small_s0 w31 + w30) land mask in
  let t1 = b + big_s1 g + ch g h a + 0xf40e3585n + w46 in
  let f = (f + t1) land mask in
  let b = (t1 + big_s0 c + maj c d e) land mask in
  let w47 = (small_s1 w45 + w40 + small_s0 w32 + w31) land mask in
  let t1 = a + big_s1 f + ch f g h + 0x106aa070n + w47 in
  let e = (e + t1) land mask in
  let a = (t1 + big_s0 b + maj b c d) land mask in
  let w48 = (small_s1 w46 + w41 + small_s0 w33 + w32) land mask in
  let t1 = h + big_s1 e + ch e f g + 0x19a4c116n + w48 in
  let d = (d + t1) land mask in
  let h = (t1 + big_s0 a + maj a b c) land mask in
  let w49 = (small_s1 w47 + w42 + small_s0 w34 + w33) land mask in
  let t1 = g + big_s1 d + ch d e f + 0x1e376c08n + w49 in
  let c = (c + t1) land mask in
  let g = (t1 + big_s0 h + maj h a b) land mask in
  let w50 = (small_s1 w48 + w43 + small_s0 w35 + w34) land mask in
  let t1 = f + big_s1 c + ch c d e + 0x2748774cn + w50 in
  let b = (b + t1) land mask in
  let f = (t1 + big_s0 g + maj g h a) land mask in
  let w51 = (small_s1 w49 + w44 + small_s0 w36 + w35) land mask in
  let t1 = e + big_s1 b + ch b c d + 0x34b0bcb5n + w51 in
  let a = (a + t1) land mask in
  let e = (t1 + big_s0 f + maj f g h) land mask in
  let w52 = (small_s1 w50 + w45 + small_s0 w37 + w36) land mask in
  let t1 = d + big_s1 a + ch a b c + 0x391c0cb3n + w52 in
  let h = (h + t1) land mask in
  let d = (t1 + big_s0 e + maj e f g) land mask in
  let w53 = (small_s1 w51 + w46 + small_s0 w38 + w37) land mask in
  let t1 = c + big_s1 h + ch h a b + 0x4ed8aa4an + w53 in
  let g = (g + t1) land mask in
  let c = (t1 + big_s0 d + maj d e f) land mask in
  let w54 = (small_s1 w52 + w47 + small_s0 w39 + w38) land mask in
  let t1 = b + big_s1 g + ch g h a + 0x5b9cca4fn + w54 in
  let f = (f + t1) land mask in
  let b = (t1 + big_s0 c + maj c d e) land mask in
  let w55 = (small_s1 w53 + w48 + small_s0 w40 + w39) land mask in
  let t1 = a + big_s1 f + ch f g h + 0x682e6ff3n + w55 in
  let e = (e + t1) land mask in
  let a = (t1 + big_s0 b + maj b c d) land mask in
  let w56 = (small_s1 w54 + w49 + small_s0 w41 + w40) land mask in
  let t1 = h + big_s1 e + ch e f g + 0x748f82een + w56 in
  let d = (d + t1) land mask in
  let h = (t1 + big_s0 a + maj a b c) land mask in
  let w57 = (small_s1 w55 + w50 + small_s0 w42 + w41) land mask in
  let t1 = g + big_s1 d + ch d e f + 0x78a5636fn + w57 in
  let c = (c + t1) land mask in
  let g = (t1 + big_s0 h + maj h a b) land mask in
  let w58 = (small_s1 w56 + w51 + small_s0 w43 + w42) land mask in
  let t1 = f + big_s1 c + ch c d e + 0x84c87814n + w58 in
  let b = (b + t1) land mask in
  let f = (t1 + big_s0 g + maj g h a) land mask in
  let w59 = (small_s1 w57 + w52 + small_s0 w44 + w43) land mask in
  let t1 = e + big_s1 b + ch b c d + 0x8cc70208n + w59 in
  let a = (a + t1) land mask in
  let e = (t1 + big_s0 f + maj f g h) land mask in
  let w60 = (small_s1 w58 + w53 + small_s0 w45 + w44) land mask in
  let t1 = d + big_s1 a + ch a b c + 0x90befffan + w60 in
  let h = (h + t1) land mask in
  let d = (t1 + big_s0 e + maj e f g) land mask in
  let w61 = (small_s1 w59 + w54 + small_s0 w46 + w45) land mask in
  let t1 = c + big_s1 h + ch h a b + 0xa4506cebn + w61 in
  let g = (g + t1) land mask in
  let c = (t1 + big_s0 d + maj d e f) land mask in
  let w62 = (small_s1 w60 + w55 + small_s0 w47 + w46) land mask in
  let t1 = b + big_s1 g + ch g h a + 0xbef9a3f7n + w62 in
  let f = (f + t1) land mask in
  let b = (t1 + big_s0 c + maj c d e) land mask in
  let w63 = (small_s1 w61 + w56 + small_s0 w48 + w47) land mask in
  let t1 = a + big_s1 f + ch f g h + 0xc67178f2n + w63 in
  let e = (e + t1) land mask in
  let a = (t1 + big_s0 b + maj b c d) land mask in
  Array.unsafe_set hv 0 (to_int ((of_int (Array.unsafe_get hv 0) + a) land mask));
  Array.unsafe_set hv 1 (to_int ((of_int (Array.unsafe_get hv 1) + b) land mask));
  Array.unsafe_set hv 2 (to_int ((of_int (Array.unsafe_get hv 2) + c) land mask));
  Array.unsafe_set hv 3 (to_int ((of_int (Array.unsafe_get hv 3) + d) land mask));
  Array.unsafe_set hv 4 (to_int ((of_int (Array.unsafe_get hv 4) + e) land mask));
  Array.unsafe_set hv 5 (to_int ((of_int (Array.unsafe_get hv 5) + f) land mask));
  Array.unsafe_set hv 6 (to_int ((of_int (Array.unsafe_get hv 6) + g) land mask));
  Array.unsafe_set hv 7 (to_int ((of_int (Array.unsafe_get hv 7) + h) land mask))

let output_of_h (h : int array) : string =
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let v = Array.unsafe_get h i in
    Bytes.unsafe_set out (4 * i) (Char.unsafe_chr ((v lsr 24) land 0xff));
    Bytes.unsafe_set out ((4 * i) + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
    Bytes.unsafe_set out ((4 * i) + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
    Bytes.unsafe_set out ((4 * i) + 3) (Char.unsafe_chr (v land 0xff))
  done;
  Bytes.unsafe_to_string out

(* Pad-and-finish into a domain-local two-block scratch: writes the
   remaining [rem] bytes already placed at the scratch head, the 0x80
   marker, zeros and the 64-bit big-endian bit length, then compresses
   the one or two tail blocks. Shared by every digest path, so
   finishing a hash allocates nothing beyond the 32-byte output. *)
let tail_scratch : Bytes.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Bytes.create 128)

let finish_tail (h : int array) (tail : Bytes.t) (rem : int) (total : int) :
    string =
  let tail_blocks = if rem < 56 then 1 else 2 in
  Bytes.fill tail rem ((tail_blocks * 64) - rem) '\000';
  Bytes.unsafe_set tail rem '\x80';
  let bits = total * 8 in
  for i = 0 to 7 do
    Bytes.unsafe_set tail
      ((tail_blocks * 64) - 1 - i)
      (Char.unsafe_chr ((bits lsr (8 * i)) land 0xff))
  done;
  let tail_s = Bytes.unsafe_to_string tail in
  compress h tail_s 0;
  if tail_blocks = 2 then compress h tail_s 64;
  output_of_h h

(* One scratch chaining value per domain: [digest] resets it in place
   instead of allocating a fresh one per call. *)
let iv = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
            0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

let h_scratch : int array Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Array.copy iv)

(** [digest s] is the 32-byte SHA-256 digest of [s].

    Full 64-byte blocks are compressed in place from [msg] — the input
    is never copied into a padded buffer. Only the tail (the remaining
    bytes, the 0x80 marker, zeros and the 64-bit big-endian bit length)
    lands in a small domain-local scratch of at most two blocks; the
    chaining value is domain-local too, so a digest allocates only its
    32-byte result. *)
let digest (msg : string) : string =
  let h = Domain.DLS.get h_scratch in
  Array.blit iv 0 h 0 8;
  let len = String.length msg in
  let full = len / 64 in
  for b = 0 to full - 1 do
    compress h msg (b * 64)
  done;
  let rem = len - (full * 64) in
  let tail = Domain.DLS.get tail_scratch in
  Bytes.blit_string msg (full * 64) tail 0 rem;
  finish_tail h tail rem len

(* ------------------------------------------------------------------ *)
(* Streaming interface.                                                *)

type st = {
  st_h : int array;  (** chaining value after [st_total / 64] blocks *)
  st_buf : Bytes.t;  (** 64-byte partial-block buffer *)
  mutable st_buflen : int;
  mutable st_total : int;  (** total bytes fed *)
}
(** A resumable hash state. The point of the streaming interface is
    *midstates*: feed a fixed prefix once (e.g. the 64-byte tagged-hash
    prefix), keep the state, and later produce digests of
    prefix-plus-suffix without recompressing the prefix — see
    {!st_digest}, which never mutates the state it reads. *)

let st_create () : st =
  { st_h = Array.copy iv;
    st_buf = Bytes.create 64;
    st_buflen = 0;
    st_total = 0 }

let st_copy (st : st) : st =
  { st_h = Array.copy st.st_h;
    st_buf = Bytes.copy st.st_buf;
    st_buflen = st.st_buflen;
    st_total = st.st_total }

(** [st_feed st s off len] absorbs [len] bytes of [s] from [off]. *)
let st_feed (st : st) (s : string) (off : int) (len : int) : unit =
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Sha256.st_feed";
  let pos = ref off and left = ref len in
  st.st_total <- st.st_total + len;
  (* top up a partial block first *)
  if st.st_buflen > 0 then begin
    let take = min !left (64 - st.st_buflen) in
    Bytes.blit_string s !pos st.st_buf st.st_buflen take;
    st.st_buflen <- st.st_buflen + take;
    pos := !pos + take;
    left := !left - take;
    if st.st_buflen = 64 then begin
      compress st.st_h (Bytes.unsafe_to_string st.st_buf) 0;
      st.st_buflen <- 0
    end
  end;
  (* whole blocks straight from the input, no copy *)
  while !left >= 64 do
    compress st.st_h s !pos;
    pos := !pos + 64;
    left := !left - 64
  done;
  if !left > 0 then begin
    Bytes.blit_string s !pos st.st_buf 0 !left;
    st.st_buflen <- !left
  end

(* Finalize destructively: pad and emit. *)
let st_finalize (st : st) : string =
  let rem = st.st_buflen in
  let tail = Domain.DLS.get tail_scratch in
  Bytes.blit st.st_buf 0 tail 0 rem;
  finish_tail st.st_h tail rem st.st_total

(* Scratch state for the non-mutating digest path: [st_digest] restores
   the midstate into this per-domain state instead of allocating a
   fresh copy per call. *)
let st_scratch : st Domain.DLS.key = Domain.DLS.new_key (fun () -> st_create ())

(** [st_digest st parts] is the digest of everything fed to [st] so far
    followed by the [(string, off, len)] slices of [parts], without
    mutating [st] — the midstate entry point: the caller keeps [st]
    (typically a cached fixed-prefix state) and derives digests of
    arbitrary suffixes from it, each suffix fed as slices with no
    intermediate concatenation. Allocation-free beyond the 32-byte
    result: the working copy is a domain-local scratch state. *)
let st_digest (st : st) (parts : (string * int * int) list) : string =
  let tmp = Domain.DLS.get st_scratch in
  Array.blit st.st_h 0 tmp.st_h 0 8;
  Bytes.blit st.st_buf 0 tmp.st_buf 0 st.st_buflen;
  tmp.st_buflen <- st.st_buflen;
  tmp.st_total <- st.st_total;
  List.iter (fun (s, off, len) -> st_feed tmp s off len) parts;
  st_finalize tmp

(** Hex digest, convenience for tests. *)
let hexdigest (msg : string) : string = Daric_util.Hex.encode (digest msg)
