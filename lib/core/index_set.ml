(* Byte 0 is the width tag (2 or 4); index [k] sits at [1 + width * k],
   little-endian. *)
type t = string

let empty = "\002"

let width (s : t) = Char.code (String.unsafe_get s 0)

let length (s : t) = (String.length s - 1) lsr (width s lsr 1)

let of_sub (a : int array) ~(pos : int) ~(len : int) : t =
  if pos < 0 || len < 0 || pos + len > Array.length a then
    invalid_arg "Index_set.of_sub";
  let hi = ref 0 in
  for k = pos to pos + len - 1 do
    let v = Array.unsafe_get a k in
    if v < 0 || v > 0xFFFF_FFFF then invalid_arg "Index_set.of_sub";
    if v > !hi then hi := v
  done;
  if !hi <= 0xFFFF then begin
    let b = Bytes.create (1 + (2 * len)) in
    Bytes.unsafe_set b 0 '\002';
    for k = 0 to len - 1 do
      Bytes.set_uint16_le b (1 + (2 * k)) (Array.unsafe_get a (pos + k))
    done;
    Bytes.unsafe_to_string b
  end
  else begin
    let b = Bytes.create (1 + (4 * len)) in
    Bytes.unsafe_set b 0 '\004';
    for k = 0 to len - 1 do
      Bytes.set_int32_le b (1 + (4 * k)) (Int32.of_int (Array.unsafe_get a (pos + k)))
    done;
    Bytes.unsafe_to_string b
  end

let of_array a = of_sub a ~pos:0 ~len:(Array.length a)

(* The string accessors bounds-check every read, so an out-of-range [k]
   raises without a separate length test. *)
let get (s : t) k =
  if width s = 2 then String.get_uint16_le s (1 + (2 * k))
  else Int32.to_int (String.get_int32_le s (1 + (4 * k))) land 0xFFFF_FFFF

let iter f (s : t) =
  let n = length s in
  if width s = 2 then
    for k = 0 to n - 1 do
      f (String.get_uint16_le s (1 + (2 * k)))
    done
  else
    for k = 0 to n - 1 do
      f (Int32.to_int (String.get_int32_le s (1 + (4 * k))) land 0xFFFF_FFFF)
    done

let iteri f (s : t) =
  let n = length s in
  if width s = 2 then
    for k = 0 to n - 1 do
      f k (String.get_uint16_le s (1 + (2 * k)))
    done
  else
    for k = 0 to n - 1 do
      f k (Int32.to_int (String.get_int32_le s (1 + (4 * k))) land 0xFFFF_FFFF)
    done

let to_array (s : t) = Array.init (length s) (get s)

let ascending_below ~bound (s : t) =
  let prev = ref (-1) and ok = ref true in
  iter
    (fun i ->
      if i <= !prev || i >= bound then ok := false;
      prev := i)
    s;
  !ok

let encoding (s : t) : string = s

let of_encoding (s : string) : t option =
  let n = String.length s in
  if n >= 1 then
    match String.unsafe_get s 0 with
    | '\002' when (n - 1) land 1 = 0 -> Some s
    | '\004' when (n - 1) land 3 = 0 -> Some s
    | _ -> None
  else None
