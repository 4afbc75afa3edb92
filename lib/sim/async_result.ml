open Rumor_util

type t = {
  time : float;
  complete : bool;
  informed : Bitset.t;
  events : int;
  steps : int;
  lost : int;
  trace : (float * int) array;
  informed_times : float array;
}
