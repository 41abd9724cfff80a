#!/usr/bin/env python3
"""Host-time CPU sampler: perf_event_open cpu-clock samples with user
callchains of one thread, symbolised with `nm`, written as folded stacks.

    hostprof.py [-f HZ] [-o OUT.folded] [--within FRAME] [--top N] -- CMD [ARG...]

Starts CMD and samples its main thread (no `inherit`: other threads are not
followed) at HZ (default 4000) until it exits. The output has one
`root;...;leaf count` line per distinct stack, the format flamegraph.pl and
inferno read (the same line format `report_flame` writes for virtual time).
`--within FRAME` keeps only samples with a frame containing FRAME and cuts
each stack to start there. A table of the top self shares goes to stderr.

Stacks are walked by the kernel through frame pointers, so build what you
profile with `RUSTFLAGS="-C force-frame-pointers=yes"`. Standard library
frames without frame pointers end a chain early. Only the Python standard
library and binutils' `nm` are needed; `kernel.perf_event_paranoid` <= 2
suffices because kernel samples are excluded.
"""
import argparse, bisect, collections, ctypes, mmap, os, struct, subprocess, sys, time

PERF_TYPE_SOFTWARE, PERF_COUNT_SW_CPU_CLOCK = 1, 0
SAMPLE_IP, SAMPLE_TID, SAMPLE_CALLCHAIN = 0x1, 0x2, 0x20
FLAG_FREQ, FLAG_EXCLUDE_KERNEL, FLAG_EXCLUDE_HV = 1 << 10, 1 << 5, 1 << 6
FLAG_EXCLUDE_CALLCHAIN_KERNEL = 1 << 21
RECORD_SAMPLE, CONTEXT_MAX = 9, 2**64 - 4095  # callchain context markers are above
NR_PERF_EVENT_OPEN = {"x86_64": 298, "aarch64": 241}[os.uname().machine]
PAGE, DATA_PAGES = mmap.PAGESIZE, 256


def open_event(pid, hz):
    attr = bytearray(128)
    struct.pack_into("IIQQQ", attr, 0, PERF_TYPE_SOFTWARE, 128, PERF_COUNT_SW_CPU_CLOCK,
                     hz, SAMPLE_IP | SAMPLE_TID | SAMPLE_CALLCHAIN)
    flags = FLAG_FREQ | FLAG_EXCLUDE_KERNEL | FLAG_EXCLUDE_HV | FLAG_EXCLUDE_CALLCHAIN_KERNEL
    struct.pack_into("Q", attr, 40, flags)
    libc = ctypes.CDLL(None, use_errno=True)
    fd = libc.syscall(NR_PERF_EVENT_OPEN, ctypes.create_string_buffer(bytes(attr)), pid, -1, -1, 0)
    if fd < 0:
        sys.exit(f"perf_event_open: {os.strerror(ctypes.get_errno())}")
    return fd


def drain(ring, stacks):
    """Parse every record between the ring's tail and head into `stacks`."""
    head, tail = struct.unpack_from("QQ", ring, 1024)
    size, start = DATA_PAGES * PAGE, tail % (DATA_PAGES * PAGE)
    end = start + head - tail
    data = ring[PAGE + start:PAGE + min(end, size)] + ring[PAGE:PAGE + max(end - size, 0)]
    pos = 0
    while pos < len(data):
        kind, _misc, length = struct.unpack_from("IHH", data, pos)
        if kind == RECORD_SAMPLE:
            ip, nr = struct.unpack_from("Q", data, pos + 8)[0], struct.unpack_from("Q", data, pos + 24)[0]
            user = [a for a in struct.unpack_from(f"{nr}Q", data, pos + 32) if a < CONTEXT_MAX]
            # The chain starts at the sampled ip; callers are return addresses.
            frames = [user[0]] + [a - 1 for a in user[1:]] if user else [ip]
            stacks[tuple(frames)] += 1
        pos += length
    struct.pack_into("Q", ring, 1032, head)


def read_maps(pid, maps):
    try:
        with open(f"/proc/{pid}/maps") as f:
            for line in f:
                parts = line.split()
                if len(parts) >= 6 and parts[1][2] == "x" and parts[5].startswith("/"):
                    lo, hi = (int(x, 16) for x in parts[0].split("-"))
                    maps[lo] = (hi, int(parts[2], 16), parts[5])
    except OSError:
        pass


def elf_loads(path):
    """PT_LOAD segments (file offset, vaddr, size) of a 64-bit ELF file."""
    with open(path, "rb") as f:
        hdr = f.read(64)
        phoff, phentsize, phnum = struct.unpack_from("Q", hdr, 32)[0], *struct.unpack_from("HH", hdr, 54)
        f.seek(phoff)
        ph = f.read(phentsize * phnum)
    loads = []
    for i in range(phnum):
        p_type, _flags, off, vaddr, _paddr, filesz = struct.unpack_from("IIQQQQ", ph, i * phentsize)
        if p_type == 1:
            loads.append((off, vaddr, filesz))
    return loads


def nm_symbols(path):
    """(start, end, name) of the text symbols of `path`, by start address:
    its symbol table, or the dynamic one when it is stripped."""
    syms = []
    for dynamic in ([], ["-D"]):
        out = subprocess.run(["nm", "-C", "-n", "-S", "--defined-only", *dynamic, path],
                             capture_output=True, text=True).stdout
        for line in out.splitlines():
            parts = line.split(" ", 3)
            if len(parts) == 4 and parts[2] in "TtWw":
                start = int(parts[0], 16)
                syms.append((start, start + int(parts[1], 16), parts[3]))
        if syms:
            break
    syms.sort()
    return [a for a, _, _ in syms], syms


class Symbolizer:
    def __init__(self, maps):
        self.starts, self.maps, self.files = sorted(maps), maps, {}

    def name(self, addr):
        i = bisect.bisect_right(self.starts, addr) - 1
        if i < 0 or addr >= self.maps[self.starts[i]][0]:
            return f"[{addr:#x}]"
        lo = self.starts[i]
        _hi, off, path = self.maps[lo]
        if path not in self.files:
            try:
                self.files[path] = (elf_loads(path), *nm_symbols(path))
            except OSError:
                self.files[path] = ([], [], [])
        loads, starts, syms = self.files[path]
        file_off = addr - lo + off
        vaddr = next((file_off - o + v for o, v, n in loads if o <= file_off < o + n), file_off)
        j = bisect.bisect_right(starts, vaddr) - 1
        # Outside every sized symbol (say, libc's IFUNC-chosen memcpy, which
        # only the stripped symbol table knew): the object's name.
        return syms[j][2] if j >= 0 and vaddr < syms[j][1] else f"[{os.path.basename(path)}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("-f", "--freq", type=int, default=4000)
    ap.add_argument("-o", "--output", default="hostprof.folded")
    ap.add_argument("--within", help="keep samples below the first frame containing this")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("cmd", nargs="+")
    args = ap.parse_args()
    child = subprocess.Popen(args.cmd)
    fd = open_event(child.pid, args.freq)
    ring = mmap.mmap(fd, (1 + DATA_PAGES) * PAGE)
    stacks, maps, last_maps = collections.Counter(), {}, 0.0
    while child.poll() is None:
        time.sleep(0.01)
        drain(ring, stacks)
        if time.monotonic() - last_maps > 1.0:
            read_maps(child.pid, maps)
            last_maps = time.monotonic()
    drain(ring, stacks)
    sym = Symbolizer(maps)
    folded, selfs, kept = collections.Counter(), collections.Counter(), 0
    for frames, n in stacks.items():
        names = [sym.name(a) for a in reversed(frames)]  # root first
        if args.within:
            cut = next((i for i, f in enumerate(names) if args.within in f), None)
            if cut is None:
                continue
            names = names[cut:]
        folded[";".join(f.replace(";", ":") for f in names)] += n
        selfs[names[-1]] += n
        kept += n
    with open(args.output, "w") as out:
        for stack, n in sorted(folded.items()):
            out.write(f"{stack} {n}\n")
    total = sum(stacks.values())
    print(f"hostprof: {total} samples, {kept} kept, {len(folded)} stacks -> {args.output}",
          file=sys.stderr)
    for name, n in selfs.most_common(args.top):
        print(f"{100 * n / max(kept, 1):6.2f}%  {name}", file=sys.stderr)
    sys.exit(child.returncode)


if __name__ == "__main__":
    main()
