(* FIPS 180-4 SHA-256 over native ints. Words live in the low 32 bits
   of an OCaml int (63-bit on every supported platform). A rotation is
   left unmasked, since a 32-bit value shifted left by at most 30 stays
   below 2^62: each sigma masks the three it combines once, and each
   sum is masked where it is stored.

   A call allocates the state, the message schedule, at most two padded
   tail blocks and the result: whole blocks are read in place from the
   message, and nothing is allocated per block or per output digit. *)

let mask = 0xffffffff
let rotr x n = (x lsr n) lor (x lsl (32 - n))

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

(* Fold the 64-byte block of [data] at [base] into the state [h], using
   [w] as the message schedule. [t] stays below 64, the length of [k]
   and [w]. *)
let compress h w data base =
  for t = 0 to 15 do
    Array.unsafe_set w t
      (Int32.to_int (Bytes.get_int32_be data (base + (4 * t))) land mask)
  done;
  for t = 16 to 63 do
    let x = Array.unsafe_get w (t - 15) and y = Array.unsafe_get w (t - 2) in
    let s0 = (rotr x 7 lxor rotr x 18 lxor (x lsr 3)) land mask in
    let s1 = (rotr y 17 lxor rotr y 19 lxor (y lsr 10)) land mask in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1)
      land mask)
  done;
  let a = ref h.(0)
  and b = ref h.(1)
  and c = ref h.(2)
  and d = ref h.(3)
  and e = ref h.(4)
  and f = ref h.(5)
  and g = ref h.(6)
  and hh = ref h.(7) in
  for t = 0 to 63 do
    let s1 = (rotr !e 6 lxor rotr !e 11 lxor rotr !e 25) land mask in
    let ch = (!e land !f) lxor (lnot !e land !g) in
    let t1 =
      (!hh + s1 + ch + Array.unsafe_get k t + Array.unsafe_get w t) land mask
    in
    let s0 = (rotr !a 2 lxor rotr !a 13 lxor rotr !a 22) land mask in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    let t2 = (s0 + maj) land mask in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + t2) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let digits = "0123456789abcdef"
let hashed = Atomic.make 0
let bytes_hashed () = Atomic.get hashed

let hex msg =
  let len = String.length msg in
  ignore (Atomic.fetch_and_add hashed len);
  let h =
    [|
      0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
      0x1f83d9ab; 0x5be0cd19;
    |]
  in
  let w = Array.make 64 0 in
  (* Whole blocks straight from the message, which is only read. *)
  let data = Bytes.unsafe_of_string msg in
  let full = len / 64 * 64 in
  let base = ref 0 in
  while !base < full do
    compress h w data !base;
    base := !base + 64
  done;
  (* The rest, one 0x80 byte, zero padding, then the bit length as a
     64-bit big-endian integer: one block, or two when fewer than nine
     bytes of the last one are free. *)
  let rest = len - full in
  let tail = Bytes.make (if rest < 56 then 64 else 128) '\000' in
  Bytes.blit_string msg full tail 0 rest;
  Bytes.set tail rest '\x80';
  Bytes.set_int64_be tail (Bytes.length tail - 8) (Int64.of_int (len * 8));
  compress h w tail 0;
  if Bytes.length tail = 128 then compress h w tail 64;
  let out = Bytes.create 64 in
  for i = 0 to 7 do
    let x = h.(i) in
    for j = 0 to 7 do
      Bytes.unsafe_set out ((8 * i) + j)
        (String.unsafe_get digits ((x lsr (28 - (4 * j))) land 0xf))
    done
  done;
  Bytes.unsafe_to_string out
