(* Fixed-size page codec: byte-level field access over a [bytes]
   buffer. See doc/STORAGE.md for the on-disk layouts built on top. *)

let default_size = 4096
let min_size = 512
let max_size = 1 lsl 20

type kind = Meta | Heap_dir | Heap_data | Free

let kind_to_byte = function
  | Meta -> 1
  | Heap_dir -> 2
  | Heap_data -> 3
  | Free -> 0

let kind_of_byte = function
  | 1 -> Some Meta
  | 2 -> Some Heap_dir
  | 3 -> Some Heap_data
  | 0 -> Some Free
  | _ -> None

let pp_kind fmt k =
  Format.pp_print_string fmt
    (match k with
    | Meta -> "meta"
    | Heap_dir -> "heap-dir"
    | Heap_data -> "heap-data"
    | Free -> "free")

let check_size n =
  if n < min_size || n > max_size || n land (n - 1) <> 0 then
    invalid_arg
      (Printf.sprintf "Page.check_size: %d (want power of two in %d..%d)" n
         min_size max_size)
  else n

let get_u8 = Bytes.get_uint8
let set_u8 = Bytes.set_uint8
let get_u16 = Bytes.get_uint16_le
let set_u16 = Bytes.set_uint16_le

let get_u32 buf off =
  Int32.to_int (Bytes.get_int32_le buf off) land 0xffff_ffff

let set_u32 buf off v = Bytes.set_int32_le buf off (Int32.of_int v)
let get_string buf ~off ~len = Bytes.sub_string buf off len
let set_string buf ~off s = Bytes.blit_string s 0 buf off (String.length s)

let alloc size kind =
  let buf = Bytes.make (check_size size) '\000' in
  set_u8 buf 0 (kind_to_byte kind);
  buf

let get_kind buf = kind_of_byte (get_u8 buf 0)
let set_kind buf k = set_u8 buf 0 (kind_to_byte k)
let has_kind buf k = get_u8 buf 0 = kind_to_byte k
