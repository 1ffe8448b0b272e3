(** Fixed-size page codec.

    A page is a [bytes] buffer of a power-of-two size whose first byte
    tags its kind. All multi-byte fields are little-endian. This module
    only reads and writes fields inside a buffer — file placement is
    {!Pager}'s job, caching is {!Buffer_pool}'s. *)

val default_size : int
(** 4096 bytes. *)

val min_size : int
(** Smallest supported page size (512); small pages keep eviction
    tests cheap. *)

(** First byte of every page. *)
type kind =
  | Meta  (** file-level metadata (heap header + application blob) *)
  | Heap_dir  (** heap page directory: free-space entries + chain link *)
  | Heap_data  (** slotted page of variable-length records *)
  | Free  (** zeroed / unused *)

val kind_to_byte : kind -> int
(** The on-disk tag: [Free] 0, [Meta] 1, [Heap_dir] 2, [Heap_data] 3.
    Heap files depend on these bytes, so they never change. *)

val kind_of_byte : int -> kind option
(** Inverse of {!kind_to_byte}; [None] on any other byte. *)

val pp_kind : Format.formatter -> kind -> unit

val check_size : int -> int
(** Validate a page size (power of two, within [min_size]..1 MiB);
    returns it or raises [Invalid_argument]. *)

val alloc : int -> kind -> bytes
(** Fresh zeroed page of the given size with the kind byte set. *)

val get_kind : bytes -> kind option
val set_kind : bytes -> kind -> unit

val has_kind : bytes -> kind -> bool
(** Kind-byte equality without a pattern match. *)

(** Field accessors; offsets are byte offsets from the page start. *)

val get_u8 : bytes -> int -> int
val set_u8 : bytes -> int -> int -> unit
val get_u16 : bytes -> int -> int
val set_u16 : bytes -> int -> int -> unit
val get_u32 : bytes -> int -> int
val set_u32 : bytes -> int -> int -> unit

val get_string : bytes -> off:int -> len:int -> string
val set_string : bytes -> off:int -> string -> unit
