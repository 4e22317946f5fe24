(** FIPS 180-4 SHA-256, pure OCaml.

    The toolchain's only built-in hash ([Stdlib.Digest]) is MD5, which
    is collision-broken: two different byte strings can be crafted to
    share a digest, so MD5 cannot back a content-addressing scheme
    whose identities cross a trust boundary (exported certificate
    bundles are precisely that). This module provides the
    collision-resistant digest the fingerprint layer hashes with,
    without adding an external dependency. *)

val hex : string -> string
(** [hex msg] is the SHA-256 digest of [msg] rendered as 64 lowercase
    hex characters. *)

val bytes_hashed : unit -> int
(** The message bytes {!hex} has digested since the process started,
    over every domain: the work counter the perf gate pins for a
    certificate bundle's export and verification. *)
