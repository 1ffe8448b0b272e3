(* Growable arrays (amortized O(1) push).

   The join evaluators and the universe builders accumulate outputs whose
   size is unknown up front; a [list ref] + [List.rev] + [Array.of_list]
   chain allocates every element twice and walks the result three times.
   This is the usual doubling vector instead: OCaml 5.1 predates the
   stdlib's [Dynarray], so we carry our own minimal one. *)

type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let length t = t.len

let push t x =
  let cap = Array.length t.data in
  if t.len = cap then begin
    (* The pushed element doubles as the fill of the fresh slots, so no
       dummy value is ever needed. *)
    let data = Array.make (max 8 (2 * cap)) x in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of bounds";
  t.data.(i)

let clear t = t.len <- 0

let to_array t = Array.sub t.data 0 t.len

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done
