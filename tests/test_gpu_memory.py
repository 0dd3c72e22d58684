"""Tests for the device memory allocator."""

import pytest
from hypothesis import given, strategies as st

from repro.gpu import DeviceBuffer, DeviceMemoryAllocator, OutOfDeviceMemory


def test_allocate_basics():
    mem = DeviceMemoryAllocator(1024)
    buf = mem.allocate(256, owner="vp0")
    assert buf.size == 256
    assert buf.owner == "vp0"
    assert mem.used_bytes == 256
    assert mem.free_bytes == 768


def test_allocate_zero_rejected():
    mem = DeviceMemoryAllocator(1024)
    with pytest.raises(ValueError):
        mem.allocate(0)


def test_capacity_validation():
    with pytest.raises(ValueError):
        DeviceMemoryAllocator(0)


def test_out_of_memory():
    mem = DeviceMemoryAllocator(100)
    mem.allocate(60)
    with pytest.raises(OutOfDeviceMemory):
        mem.allocate(50)


def test_free_reclaims_space():
    mem = DeviceMemoryAllocator(100)
    buf = mem.allocate(100)
    mem.free(buf)
    assert mem.free_bytes == 100
    again = mem.allocate(100)
    assert again.address == 0


def test_double_free_rejected():
    mem = DeviceMemoryAllocator(100)
    buf = mem.allocate(10)
    mem.free(buf)
    with pytest.raises(RuntimeError):
        mem.free(buf)


def test_free_foreign_buffer_rejected():
    mem_a = DeviceMemoryAllocator(100)
    mem_b = DeviceMemoryAllocator(100)
    buf = mem_a.allocate(10)
    with pytest.raises(RuntimeError):
        mem_b.free(buf)


def test_free_of_an_equal_looking_copy_rejected():
    mem = DeviceMemoryAllocator(1 << 20)
    live = mem.allocate(4096, owner="vp0")
    impostor = DeviceBuffer(address=live.address, size=live.size, owner="vp0")
    with pytest.raises(RuntimeError, match="not allocated here"):
        mem.free(impostor)
    # The live buffer still owns its range: the next allocation lands after it.
    assert not live.freed
    assert mem.allocate(4096).address == live.end


def test_first_fit_reuses_gap():
    mem = DeviceMemoryAllocator(300)
    a = mem.allocate(100)
    b = mem.allocate(100)
    mem.allocate(100)
    mem.free(a)
    mem.free(b)
    # A 150-byte allocation fits in the merged [0, 200) gap.
    buf = mem.allocate(150)
    assert buf.address == 0


def test_allocate_contiguous_adjacency():
    mem = DeviceMemoryAllocator(1000)
    buffers = mem.allocate_contiguous([100, 200, 50], owner="coalesced")
    assert mem.are_contiguous(buffers)
    assert buffers[0].end == buffers[1].address
    assert buffers[1].end == buffers[2].address


def test_allocate_contiguous_skips_fragmented_gaps():
    mem = DeviceMemoryAllocator(1000)
    a = mem.allocate(100)       # [0, 100)
    mem.allocate(100)           # [100, 200)
    mem.free(a)                 # gap [0, 100)
    buffers = mem.allocate_contiguous([80, 80])
    # 160 bytes do not fit the 100-byte gap; placed after existing data.
    assert buffers[0].address == 200
    assert mem.are_contiguous(buffers)


def test_allocate_contiguous_validation():
    mem = DeviceMemoryAllocator(100)
    with pytest.raises(ValueError):
        mem.allocate_contiguous([])
    with pytest.raises(ValueError):
        mem.allocate_contiguous([10, 0])


def test_allocate_contiguous_out_of_memory():
    mem = DeviceMemoryAllocator(100)
    with pytest.raises(OutOfDeviceMemory):
        mem.allocate_contiguous([60, 60])


def test_are_contiguous_detects_gap():
    mem = DeviceMemoryAllocator(1000)
    a = mem.allocate(100)
    _gap = mem.allocate(100)
    b = mem.allocate(100)
    assert not mem.are_contiguous([a, b])
    assert not mem.are_contiguous([])


def test_owner_tracking_and_release():
    mem = DeviceMemoryAllocator(1000)
    mem.allocate(100, owner="vp0")
    mem.allocate(200, owner="vp0")
    mem.allocate(50, owner="vp1")
    assert len(mem.owned_by("vp0")) == 2
    released = mem.release_owner("vp0")
    assert released == 300
    assert mem.owned_by("vp0") == []
    assert len(mem.owned_by("vp1")) == 1


@given(st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=20))
def test_contiguous_allocation_total_and_order(sizes):
    mem = DeviceMemoryAllocator(64 * 20 + 1)
    buffers = mem.allocate_contiguous(sizes)
    assert [b.size for b in buffers] == sizes
    assert mem.are_contiguous(buffers)
    span = buffers[-1].end - buffers[0].address
    assert span == sum(sizes)


@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(min_value=1, max_value=128)),
        min_size=1,
        max_size=50,
    )
)
def test_allocator_never_overlaps(ops):
    """Property: live buffers never overlap, whatever the alloc/free pattern."""
    mem = DeviceMemoryAllocator(4096)
    live = []
    for is_alloc, size in ops:
        if is_alloc or not live:
            try:
                live.append(mem.allocate(size))
            except OutOfDeviceMemory:
                pass
        else:
            mem.free(live.pop(0))
    ordered = sorted(live, key=lambda b: b.address)
    for left, right in zip(ordered, ordered[1:]):
        assert left.end <= right.address
    assert mem.used_bytes == sum(b.size for b in live)


# -- oracle: the gap scan the free-gap index replaced ------------------------------


class ScanAllocator:
    """First fit by rescanning the live buffers on every call.

    The allocator's original algorithm, kept as the reference its
    free-gap index must agree with, address for address.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.live = []  # (address, size), address order

    def gaps(self):
        gaps, cursor = [], 0
        for address, size in self.live:
            if address > cursor:
                gaps.append((cursor, address - cursor))
            cursor = max(cursor, address + size)
        if cursor < self.capacity:
            gaps.append((cursor, self.capacity - cursor))
        return gaps

    @property
    def free_bytes(self):
        return self.capacity - sum(size for _, size in self.live)

    def allocate_contiguous(self, sizes):
        total = sum(sizes)
        for address, gap in self.gaps():
            if gap >= total:
                cursor, addresses = address, []
                for size in sizes:
                    self.live.append((cursor, size))
                    addresses.append(cursor)
                    cursor += size
                self.live.sort()
                return addresses
        return None

    def oom_message(self, sizes, contiguous):
        total = sum(sizes)
        if contiguous:
            return f"cannot allocate {total} contiguous bytes (free={self.free_bytes})"
        largest = max((g for _, g in self.gaps()), default=0)
        return (
            f"cannot allocate {total} bytes (free={self.free_bytes}, "
            f"largest gap={largest})"
        )

    def free(self, address, size):
        self.live.remove((address, size))


_SIZES = st.integers(min_value=1, max_value=96)


@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("alloc"), st.lists(_SIZES, min_size=1, max_size=1)),
            st.tuples(st.just("contig"), st.lists(_SIZES, min_size=1, max_size=5)),
            st.tuples(st.just("free"), st.integers(min_value=0, max_value=1 << 16)),
        ),
        min_size=1,
        max_size=80,
    )
)
def test_free_gap_index_matches_the_scan_oracle(ops):
    """Same addresses, same OOM step and message, same gaps, every step."""
    mem = DeviceMemoryAllocator(1024)
    oracle = ScanAllocator(1024)
    live = []
    for kind, arg in ops:
        if kind == "free":
            if not live:
                continue
            buffer = live.pop(arg % len(live))
            mem.free(buffer)
            oracle.free(buffer.address, buffer.size)
        else:
            expected = oracle.allocate_contiguous(arg)
            if expected is None:
                message = oracle.oom_message(arg, contiguous=kind == "contig")
                with pytest.raises(OutOfDeviceMemory) as raised:
                    if kind == "contig":
                        mem.allocate_contiguous(arg)
                    else:
                        mem.allocate(arg[0])
                assert str(raised.value) == message
                continue
            if kind == "contig":
                buffers = mem.allocate_contiguous(arg)
            else:
                buffers = [mem.allocate(arg[0])]
            assert [b.address for b in buffers] == expected
            live.extend(buffers)
        assert mem._free_gaps == oracle.gaps()
        assert mem.free_bytes == oracle.free_bytes
