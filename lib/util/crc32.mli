(** CRC-32 (IEEE 802.3, the zlib/PNG polynomial 0xEDB88320), table
    driven.

    Used by the durable-storage layers (the campaign WAL and the sweep
    checkpoint) to detect torn writes and bit rot: every persisted
    record carries the checksum of its payload, and loaders quarantine
    records whose checksum does not match instead of silently
    parsing garbage.

    Reference vector: [digest "123456789" = 0xCBF43926l]. *)

val digest : string -> int32
(** CRC-32 of a whole string. *)

val to_hex : int32 -> string
(** Lower-case, zero-padded 8-character hex rendering. *)

val of_hex : string -> int32 option
(** Inverse of {!to_hex}; [None] unless the input is exactly 8 hex
    digits. *)
