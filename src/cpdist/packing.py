"""Rows of integers packed into one int each (Kronecker substitution).

A packed row of ``count`` w-bit slots, w a whole number of bytes, is the int
sum_t x_t * 2^(w*t) with balanced digits |x_t| < 2^(w-1): a negative digit
borrows one from the slot above it.  Adding the slot bias, 2^(w-1) in every
slot, makes each digit nonnegative, so the biased row's bytes are the slots'
bytes and need no borrow.  ``linalg._bareiss_packed`` updates whole packed
rows with a few bigint operations; these helpers move rows in and out of
that form and read the block's common power of two.
"""

from __future__ import annotations

import sys
from functools import reduce
from operator import or_

# Spare bits of each slot beyond the two the balanced digits and their sign
# take, so that slots are not widened at every elimination step.
_PACK_HEADROOM_BITS = 16
# _unpack reads rows of at least _CAST_MIN_SLOTS slots of up to 8 bytes as
# one array of native int64 ("q"), which holds their little-endian bytes
# only on a little-endian host.  Below 12 slots its fixed cost exceeds that
# of one int.from_bytes per slot (about 0.3 us a slot, Python 3.11).
_CAST_UNPACK = sys.byteorder == "little"
_CAST_MIN_SLOTS = 12
_SIGN_BYTES = bytes(0xFF if b & 0x80 else 0 for b in range(256))


def _twos(x: int) -> int:
    """The exponent of the largest power of two that divides x != 0."""
    return (x & -x).bit_length() - 1


def _slot_width(bound: int) -> int:
    """Slot width in bits, a whole number of bytes, for packed entries of
    absolute value at most ``bound``, with _PACK_HEADROOM_BITS to spare
    beyond the two bits the balanced digits and their sign take."""
    return (bound.bit_length() + 2 + _PACK_HEADROOM_BITS + 7) & ~7


def _slot_bias(count: int, w: int, stride: int) -> int:
    """sum_t 2^(w-1) * 2^(stride*t) over ``count`` slots: added to a packed
    row, it makes every w-bit digit nonnegative."""
    return int.from_bytes((bytes(w // 8 - 1) + b"\x80" + bytes((stride - w) // 8)) * count, "little")


def _pack(row: list, w: int) -> int:
    """``row`` as one int of w-bit balanced digits, entry t at bit w*t."""
    size, half = w // 8, 1 << (w - 1)
    data = b"".join([(x + half).to_bytes(size, "little") for x in row])
    return int.from_bytes(data, "little") - _slot_bias(len(row), w, w)


def _unpack(r: int, count: int, w: int) -> list:
    """The ``count`` entries of the packed row ``r``.

    XOR with the bias flips back the top bit that the bias set in each
    biased slot, which leaves every slot's w-bit two's complement.  For w <=
    64 on a little-endian host these bytes are copied strided into 8-byte
    slots, the sign bytes above them filled from each slot's top byte by one
    ``bytes.translate``, and the slots read as one int64 array; wider slots,
    and rows of fewer than _CAST_MIN_SLOTS, are read one ``int.from_bytes``
    a slot."""
    size, bias = w // 8, _slot_bias(count, w, w)
    if w > 64 or count < _CAST_MIN_SLOTS or not _CAST_UNPACK:
        half = 1 << (w - 1)
        data = (r + bias).to_bytes(count * size, "little")
        return [int.from_bytes(data[s:s + size], "little") - half for s in range(0, count * size, size)]
    data = ((r + bias) ^ bias).to_bytes(count * size, "little")
    buf = bytearray(8 * count)
    for b in range(size):
        buf[b::8] = data[b::size]
    signs = data[size - 1::size].translate(_SIGN_BYTES)
    for b in range(size, 8):
        buf[b::8] = signs
    return memoryview(buf).cast("q").tolist()


def _widen(r: int, count: int, w: int, wider: int) -> int:
    """The packed row ``r`` of ``count`` w-bit slots, repacked in slots of
    ``wider`` bits: its biased bytes move by one strided slice per byte of
    a slot, and the old bias comes off in the new layout."""
    size, new_size = w // 8, wider // 8
    old = (r + _slot_bias(count, w, w)).to_bytes(count * size, "little")
    new = bytearray(count * new_size)
    for b in range(size):
        new[b::new_size] = old[b::size]
    return int.from_bytes(new, "little") - _slot_bias(count, w, wider)


def _common_twos(row_k: list, rows: list, count: int, w: int) -> int:
    """The largest s with 2^s dividing every entry of the pivot row
    ``row_k``, one of them nonzero, and every digit of the packed ``rows``
    of at most ``count`` w-bit slots, or 0 when s < 2: shedding a lone
    factor 2 saves one bit per slot for a pass over the block, and random
    integer matrices show one at about a third of their widenings.  The
    pivot row bounds s first, and a packed row with a digit that is not a
    multiple of 4 ends the scan.  A packed row plus the slot bias has
    nonnegative digits, so masking each slot's low bits reads its digit
    modulo a power of two with no borrow from below; the masked rows are
    ORed, then their slots are folded onto the lowest."""
    low = reduce(or_, row_k)
    low &= -low
    if low < 4:
        return 0
    bias = _slot_bias(count, w, w)
    unit = bias >> (w - 1)
    mask, low_two, acc = unit * (low - 1), unit * 3, 0
    for r in rows:
        acc |= (r + bias) & mask
        if acc & low_two:
            return 0
    while count > 1:
        count = (count + 1) // 2
        acc = (acc >> (count * w)) | (acc & ((1 << count * w) - 1))
    return _twos(acc | low)
