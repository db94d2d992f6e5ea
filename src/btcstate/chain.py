"""Canonical Bitcoin-shaped chain data: headers, transactions, blocks.

Serialization is bit-exact with Bitcoin's wire layout (little-endian
integers, raw 32-byte hashes in internal order, CompactSize counts), so
hashes computed here match the reference values for real chain data.
Hashes are displayed in the customary reversed-hex convention.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import NamedTuple, Optional

HEADER_SIZE = 80  # bytes
MAX_MONEY = 21_000_000 * 100_000_000  # satoshi
HASH_SPACE = 1 << 256

_UINT32_MAX = 0xFFFFFFFF


class SerializationError(ValueError):
    """Raised when bytes do not form a canonical chain object."""


class CompactBitsError(ValueError):
    """Raised for compact difficulty encodings that expand to no usable target."""


def sha256d(data: bytes) -> bytes:
    """Double SHA-256, the hash used for block and transaction ids."""
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


class Hash256(bytes):
    """A 32-byte double-SHA256 digest in internal (wire) byte order."""

    __slots__ = ()

    def __new__(cls, data: bytes) -> "Hash256":
        if len(data) != 32:
            raise ValueError(f"Hash256 needs exactly 32 bytes, got {len(data)}")
        return super().__new__(cls, data)

    @classmethod
    def from_rev_hex(cls, text: str) -> "Hash256":
        """Parse the human-facing reversed-hex form (as block explorers print)."""
        return cls(bytes.fromhex(text)[::-1])

    def rev_hex(self) -> str:
        return self[::-1].hex()

    def as_int(self) -> int:
        """The digest as the little-endian integer compared against targets."""
        return int.from_bytes(self, "little")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Hash256({self.rev_hex()})"


ZERO_HASH = Hash256(b"\x00" * 32)
# A Hash256 from bytes the caller knows are 32 long, without the length check.
_new_hash = partial(bytes.__new__, Hash256)


class NetworkKind(Enum):
    """Which validation policy and simulator defaults apply."""

    MAINNET = "mainnet"
    TESTNET = "testnet"
    REGTEST = "regtest"

    @classmethod
    def from_str(cls, text: str) -> "NetworkKind":
        try:
            return cls(text.lower())
        except ValueError:
            raise ValueError(f"unknown network {text!r}") from None


# --- CompactSize varints and the decoder's fixed layouts -------------------

_I32 = struct.Struct("<i")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_HEADER = struct.Struct("<i32s32sIII")
_OUTPOINT = struct.Struct("<32sI")
# The first byte of a multi-byte CompactSize: its value's layout, the
# smallest value that needs it, and its total length.
_WIDE_VARINT = {
    0xFD: (struct.Struct("<H").unpack_from, 0xFD, 3),
    0xFE: (struct.Struct("<I").unpack_from, 0x10000, 5),
    0xFF: (struct.Struct("<Q").unpack_from, 0x100000000, 9),
}
_ONE_BYTE = [bytes((n,)) for n in range(0xFD)]
_MAX_COUNT = 1_000_000  # inputs, outputs or transactions; anything above is implausible


def write_varint(n: int) -> bytes:
    if n < 0xFD:
        if n < 0:
            raise SerializationError("varint must be non-negative")
        return _ONE_BYTE[n]
    if n <= 0xFFFF:
        return b"\xfd" + struct.pack("<H", n)
    if n <= 0xFFFFFFFF:
        return b"\xfe" + struct.pack("<I", n)
    return b"\xff" + struct.pack("<Q", n)


def _wide_varint(data: bytes, pos: int) -> tuple[int, int]:
    """The multi-byte CompactSize at `pos` and the offset after it; a value
    that a shorter form holds is refused. Callers read a one-byte value
    (below 0xFD) themselves."""
    unpack, floor, width = _WIDE_VARINT[data[pos]]
    (value,) = unpack(data, pos + 1)
    if value < floor:
        raise SerializationError("non-canonical varint")
    return value, pos + width


def _decode(read, data: bytes, what: str):
    """Run a decoder over all of `data`. A read past the end surfaces as
    IndexError or struct.error and is reported as SerializationError."""
    try:
        obj, end = read(data, 0)
    except (IndexError, struct.error):
        raise SerializationError("unexpected end of data") from None
    if end != len(data):
        raise SerializationError(f"trailing bytes after {what}")
    return obj


# --- Block header --------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BlockHeader:
    """The 80-byte header: version, prev, merkle root, time, bits, nonce.

    Its hash is computed on first use and kept, so every tree that holds
    the header shares one digest."""

    version: int
    prev: Hash256
    merkle_root: Hash256
    time: int
    bits: int
    nonce: int
    _hash: Optional[Hash256] = field(default=None, init=False, compare=False, repr=False)

    def to_bytes(self) -> bytes:
        return _HEADER.pack(
            self.version, self.prev, self.merkle_root, self.time & _UINT32_MAX, self.bits, self.nonce
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "BlockHeader":
        if len(data) != HEADER_SIZE:
            raise SerializationError(f"header must be {HEADER_SIZE} bytes, got {len(data)}")
        return _read_header(data, 0)

    def hash(self) -> Hash256:
        h = self._hash
        if h is None:
            h = Hash256(sha256d(self.to_bytes()))
            object.__setattr__(self, "_hash", h)
        return h


# --- Transactions --------------------------------------------------------


class OutPoint(NamedTuple):
    """Reference to a previous transaction output. A tuple, so hashing and
    comparing one runs at C speed."""

    txid: Hash256
    vout: int

    def is_null(self) -> bool:
        return self.txid == ZERO_HASH and self.vout == _UINT32_MAX

    @classmethod
    def null(cls) -> "OutPoint":
        return cls(ZERO_HASH, _UINT32_MAX)


@dataclass(frozen=True, slots=True)
class TxIn:
    outpoint: OutPoint
    script_sig: bytes = b""
    sequence: int = _UINT32_MAX


@dataclass(frozen=True, slots=True)
class TxOut:
    value: int
    script_pubkey: bytes


@dataclass(frozen=True, slots=True)
class Transaction:
    """A plain (pre-segwit layout) transaction; txid is the double-SHA256
    of the canonical serialization, computed on first use and kept with the
    serialization's length."""

    version: int
    inputs: tuple[TxIn, ...]
    outputs: tuple[TxOut, ...]
    lock_time: int = 0
    _txid: Optional[Hash256] = field(default=None, init=False, compare=False, repr=False)
    _size: int = field(default=0, init=False, compare=False, repr=False)

    def to_bytes(self) -> bytes:
        parts = [_I32.pack(self.version), write_varint(len(self.inputs))]
        append = parts.append
        for txin in self.inputs:
            script = txin.script_sig
            append(_OUTPOINT.pack(*txin.outpoint))
            append(write_varint(len(script)))
            append(script)
            append(_U32.pack(txin.sequence))
        append(write_varint(len(self.outputs)))
        for txout in self.outputs:
            script = txout.script_pubkey
            append(_I64.pack(txout.value))
            append(write_varint(len(script)))
            append(script)
        append(_U32.pack(self.lock_time))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Transaction":
        return _decode(_read_transaction, data, "transaction")

    def txid(self) -> Hash256:
        h = self._txid
        if h is None:
            raw = self.to_bytes()
            h = Hash256(sha256d(raw))
            object.__setattr__(self, "_txid", h)
            object.__setattr__(self, "_size", len(raw))
        return h

    def size(self) -> int:
        """Length of the serialization, kept from the one `txid` hashes."""
        if self._txid is None:
            self.txid()
        return self._size

    def is_coinbase(self) -> bool:
        return len(self.inputs) == 1 and self.inputs[0].outpoint.is_null()


# --- Blocks and merkle roots ----------------------------------------------


def merkle_root(txids: list[Hash256]) -> Hash256:
    """Bitcoin's merkle rule: pairwise double-SHA256, duplicating the last
    element of odd-length levels. A single txid is its own root."""
    if not txids:
        raise ValueError("merkle root of zero transactions is undefined")
    level: list[bytes] = list(txids)
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        level = [sha256d(level[i] + level[i + 1]) for i in range(0, len(level), 2)]
    return Hash256(level[0])


@dataclass(frozen=True, slots=True)
class Block:
    """A header and its transactions; the merkle root of the transactions
    is computed on first use and kept, and so is a passed shape check
    (`validation.check_block_shape`)."""

    header: BlockHeader
    transactions: tuple[Transaction, ...]
    _root: Optional[Hash256] = field(default=None, init=False, compare=False, repr=False)
    _checked: bool = field(default=False, init=False, compare=False, repr=False)

    def to_bytes(self) -> bytes:
        parts = [self.header.to_bytes(), write_varint(len(self.transactions))]
        parts.extend(tx.to_bytes() for tx in self.transactions)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Block":
        return _decode(_read_block, data, "block")

    def txids(self) -> list[Hash256]:
        return [tx.txid() for tx in self.transactions]

    def computed_merkle_root(self) -> Hash256:
        root = self._root
        if root is None:
            root = merkle_root(self.txids())
            object.__setattr__(self, "_root", root)
        return root

    def size(self) -> int:
        """Length of the serialization, from each transaction's kept length."""
        return (
            HEADER_SIZE
            + len(write_varint(len(self.transactions)))
            + sum(tx.size() for tx in self.transactions)
        )


# --- The decoder ------------------------------------------------------------
#
# One pass over the bytes by offset. Each reader takes the data and the
# offset to start at; the transaction and block readers also return the
# offset after what they read. A one-byte CompactSize is read inline. A read
# past the end raises IndexError or struct.error, which `_decode` reports,
# and a script that runs past the end is refused where it is sliced.


def _read_header(data: bytes, pos: int) -> BlockHeader:
    version, prev, merkle, time, bits, nonce = _HEADER.unpack_from(data, pos)
    return BlockHeader(version, _new_hash(prev), _new_hash(merkle), time, bits, nonce)


def _read_transaction(data: bytes, pos: int) -> tuple[Transaction, int]:
    start = pos
    (version,) = _I32.unpack_from(data, pos)
    pos += 4
    n_in = data[pos]
    if n_in < 0xFD:
        pos += 1
    else:
        n_in, pos = _wide_varint(data, pos)
        if n_in > _MAX_COUNT:
            raise SerializationError("implausible input count")
    size = len(data)
    inputs = []
    for _ in range(n_in):
        txid, vout = _OUTPOINT.unpack_from(data, pos)
        pos += 36
        n = data[pos]
        if n < 0xFD:
            pos += 1
        else:
            n, pos = _wide_varint(data, pos)
        end = pos + n
        if end > size:
            raise SerializationError("unexpected end of data")
        (sequence,) = _U32.unpack_from(data, end)
        inputs.append(TxIn(OutPoint(_new_hash(txid), vout), data[pos:end], sequence))
        pos = end + 4
    n_out = data[pos]
    if n_out < 0xFD:
        pos += 1
    else:
        n_out, pos = _wide_varint(data, pos)
        if n_out > _MAX_COUNT:
            raise SerializationError("implausible output count")
    outputs = []
    for _ in range(n_out):
        (value,) = _I64.unpack_from(data, pos)
        n = data[pos + 8]
        if n < 0xFD:
            pos += 9
        else:
            n, pos = _wide_varint(data, pos + 8)
        end = pos + n
        if end > size:
            raise SerializationError("unexpected end of data")
        outputs.append(TxOut(value, data[pos:end]))
        pos = end
    (lock_time,) = _U32.unpack_from(data, pos)
    pos += 4
    tx = Transaction(version, tuple(inputs), tuple(outputs), lock_time)
    # Varints are canonical, so the bytes read are the serialization.
    object.__setattr__(tx, "_txid", _new_hash(sha256d(data[start:pos])))
    object.__setattr__(tx, "_size", pos - start)
    return tx, pos


def _read_block(data: bytes, pos: int) -> tuple[Block, int]:
    header = _read_header(data, pos)
    pos += HEADER_SIZE
    n_tx = data[pos]
    if n_tx < 0xFD:
        pos += 1
    else:
        n_tx, pos = _wide_varint(data, pos)
        if n_tx > _MAX_COUNT:
            raise SerializationError("implausible transaction count")
    txs = []
    for _ in range(n_tx):
        tx, pos = _read_transaction(data, pos)
        txs.append(tx)
    return Block(header, tuple(txs)), pos


# --- Compact difficulty targets and work ----------------------------------


def bits_to_target(bits: int) -> int:
    """Expand the compact 'bits' encoding to the full 256-bit target.

    Raises CompactBitsError for encodings that are negative, overflow
    256 bits, or expand to zero; such headers can never validate.
    """
    if not 0 <= bits <= _UINT32_MAX:
        raise CompactBitsError(f"bits out of range: {bits:#x}")
    exponent = bits >> 24
    mantissa = bits & 0x007FFFFF
    if bits & 0x00800000:
        raise CompactBitsError("negative compact target")
    if exponent <= 3:
        target = mantissa >> (8 * (3 - exponent))
    else:
        target = mantissa << (8 * (exponent - 3))
    if target == 0:
        raise CompactBitsError("zero target")
    if target >= HASH_SPACE:
        raise CompactBitsError("target overflows 256 bits")
    return target


def target_to_bits(target: int) -> int:
    """Compact-encode a target, rounding down like the reference client."""
    if target <= 0:
        raise CompactBitsError("target must be positive")
    size = (target.bit_length() + 7) // 8
    if size <= 3:
        mantissa = target << (8 * (3 - size))
    else:
        mantissa = target >> (8 * (size - 3))
    if mantissa & 0x00800000:
        mantissa >>= 8
        size += 1
    return (size << 24) | mantissa


def work_from_target(target: int) -> int:
    """Expected number of hash attempts a target represents."""
    if target <= 0:
        raise CompactBitsError("target must be positive")
    return HASH_SPACE // (target + 1)


def work_from_bits(bits: int) -> int:
    return work_from_target(bits_to_target(bits))


# --- Address extraction ----------------------------------------------------

_B58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
# Two base58 digits per entry: entry 58 * hi + lo spells digit hi, then lo.
_B58_PAIRS = [hi + lo for hi in _B58_ALPHABET for lo in _B58_ALPHABET]


def _base58check(payload: bytes) -> str:
    data = payload + sha256d(payload)[:4]
    n = int.from_bytes(data, "big")
    out = []
    while n:
        n, rem = divmod(n, 58 * 58)
        out.append(_B58_PAIRS[rem])
    # The top pair may spell a leading zero digit, which the number lacks;
    # each leading zero byte is spelled as one zero digit instead.
    digits = "".join(reversed(out)).lstrip("1")
    pad = len(data) - len(data.lstrip(b"\x00"))
    return "1" * pad + digits


_BECH32_CHARSET = "qpzry9x8gf2tvdw0s3jn54khce6mua7l"


def _bech32_polymod(values: list[int]) -> int:
    gen = (0x3B6A57B2, 0x26508E6D, 0x1EA119FA, 0x3D4233DD, 0x2A1462B3)
    chk = 1
    for v in values:
        top = chk >> 25
        chk = (chk & 0x1FFFFFF) << 5 ^ v
        for i in range(5):
            chk ^= gen[i] if ((top >> i) & 1) else 0
    return chk


def _bech32_hrp_expand(hrp: str) -> list[int]:
    return [ord(c) >> 5 for c in hrp] + [0] + [ord(c) & 31 for c in hrp]


def _bech32_encode(hrp: str, data: list[int]) -> str:
    values = _bech32_hrp_expand(hrp) + data
    polymod = _bech32_polymod(values + [0, 0, 0, 0, 0, 0]) ^ 1
    checksum = [(polymod >> 5 * (5 - i)) & 31 for i in range(6)]
    return hrp + "1" + "".join(_BECH32_CHARSET[d] for d in data + checksum)


def _convert_8_to_5(data: bytes) -> list[int]:
    acc = 0
    bits = 0
    out = []
    for byte in data:
        acc = (acc << 8) | byte
        bits += 8
        while bits >= 5:
            bits -= 5
            out.append((acc >> bits) & 31)
    if bits:
        out.append((acc << (5 - bits)) & 31)
    return out


_P2PKH_VERSION = {
    NetworkKind.MAINNET: 0x00,
    NetworkKind.TESTNET: 0x6F,
    NetworkKind.REGTEST: 0x6F,
}
_P2SH_VERSION = {
    NetworkKind.MAINNET: 0x05,
    NetworkKind.TESTNET: 0xC4,
    NetworkKind.REGTEST: 0xC4,
}
_BECH32_HRP = {
    NetworkKind.MAINNET: "bc",
    NetworkKind.TESTNET: "tb",
    NetworkKind.REGTEST: "bcrt",
}


def script_address(script: bytes, network: NetworkKind) -> str:
    """Derive the indexing address for a locking script.

    Recognizes the P2PKH, P2SH, and P2WPKH templates; anything else is
    indexed under an opaque address formed from the script's double-SHA256
    so every output stays retrievable by address.
    """
    if (
        len(script) == 25
        and script[0] == 0x76
        and script[1] == 0xA9
        and script[2] == 0x14
        and script[23] == 0x88
        and script[24] == 0xAC
    ):
        return _base58check(bytes([_P2PKH_VERSION[network]]) + script[3:23])
    if len(script) == 23 and script[0] == 0xA9 and script[1] == 0x14 and script[22] == 0x87:
        return _base58check(bytes([_P2SH_VERSION[network]]) + script[2:22])
    if len(script) == 22 and script[0] == 0x00 and script[1] == 0x14:
        return _bech32_encode(_BECH32_HRP[network], [0] + _convert_8_to_5(script[2:22]))
    return "script-" + sha256d(script).hex()


def p2pkh_script(pubkey_hash: bytes) -> bytes:
    """Build the standard pay-to-pubkey-hash locking script."""
    if len(pubkey_hash) != 20:
        raise ValueError("pubkey hash must be 20 bytes")
    return b"\x76\xa9\x14" + pubkey_hash + b"\x88\xac"
