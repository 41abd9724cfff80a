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

A leaf without a frame pointer (libc's `memcpy`, `memmove`, `malloc`) loses
its caller: the walk starts at the caller's saved frame, so the first
return address it records is the caller's caller's. Each sample therefore
also carries the stack pointer and STACK_BYTES of the user stack from it up.
When the sampled ip lies outside the profiled executable, the first word of
that copy pointing into the executable's text is taken as the caller and
inserted under the leaf. This is a heuristic: a leaf that pushed a code
address before the sample, or whose caller is itself outside the
executable, gets a wrong or no caller.
"""
import argparse, bisect, collections, ctypes, mmap, os, struct, subprocess, sys, time

PERF_TYPE_SOFTWARE, PERF_COUNT_SW_CPU_CLOCK = 1, 0
SAMPLE_IP, SAMPLE_TID, SAMPLE_CALLCHAIN = 0x1, 0x2, 0x20
SAMPLE_REGS_USER, SAMPLE_STACK_USER = 0x1000, 0x2000
FLAG_FREQ, FLAG_EXCLUDE_KERNEL, FLAG_EXCLUDE_HV = 1 << 10, 1 << 5, 1 << 6
FLAG_EXCLUDE_CALLCHAIN_KERNEL = 1 << 21
RECORD_SAMPLE, CONTEXT_MAX = 9, 2**64 - 4095  # callchain context markers are above
NR_PERF_EVENT_OPEN = {"x86_64": 298, "aarch64": 241}[os.uname().machine]
REG_SP = {"x86_64": 7, "aarch64": 31}[os.uname().machine]  # perf_regs.h
STACK_BYTES = 256  # user stack copied per sample, from the stack pointer up
PAGE, DATA_PAGES = mmap.PAGESIZE, 256


def open_event(pid, hz):
    attr = bytearray(128)
    sample = SAMPLE_IP | SAMPLE_TID | SAMPLE_CALLCHAIN | SAMPLE_REGS_USER | SAMPLE_STACK_USER
    struct.pack_into("IIQQQ", attr, 0, PERF_TYPE_SOFTWARE, 128, PERF_COUNT_SW_CPU_CLOCK, hz, sample)
    flags = FLAG_FREQ | FLAG_EXCLUDE_KERNEL | FLAG_EXCLUDE_HV | FLAG_EXCLUDE_CALLCHAIN_KERNEL
    struct.pack_into("Q", attr, 40, flags)
    struct.pack_into("QI", attr, 80, 1 << REG_SP, STACK_BYTES)  # sample_regs_user, _stack_user
    libc = ctypes.CDLL(None, use_errno=True)
    fd = libc.syscall(NR_PERF_EVENT_OPEN, ctypes.create_string_buffer(bytes(attr)), pid, -1, -1, 0)
    if fd < 0:
        sys.exit(f"perf_event_open: {os.strerror(ctypes.get_errno())}")
    return fd


def frameless_caller(ip, user, stack, exe_text):
    """The caller of a leaf outside the executable, read off the stack copy
    (see the module docs), or None."""
    if not exe_text or any(lo <= ip < hi for lo, hi in exe_text):
        return None
    for (word,) in struct.iter_unpack("Q", stack):
        if any(lo <= word < hi for lo, hi in exe_text):
            # Already the walk's first return address: the leaf kept a frame.
            return None if len(user) > 1 and word == user[1] else word
    return None


def drain(ring, stacks, exe_text):
    """Parse every record between the ring's tail and head into `stacks`;
    `exe_text` is the profiled executable's text ranges."""
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
            at = pos + 32 + 8 * nr
            abi = struct.unpack_from("Q", data, at)[0]
            at += 16 if abi else 8  # the abi word, then the one register (sp)
            stack_size = struct.unpack_from("Q", data, at)[0]
            stack = b""
            if stack_size:  # then the copy, then how much of it is filled
                dyn_size = struct.unpack_from("Q", data, at + 8 + stack_size)[0]
                stack = bytes(data[at + 8:at + 8 + min(stack_size, dyn_size)])
            # The chain starts at the sampled ip; callers are return addresses.
            frames = [user[0]] + [a - 1 for a in user[1:]] if user else [ip]
            caller = frameless_caller(frames[0], user, stack, exe_text)
            if caller is not None:
                frames.insert(1, caller - 1)
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
    exe, exe_text = None, []
    while child.poll() is None:
        time.sleep(0.01)
        try:
            # CMD may exec another program (taskset does): follow it.
            now_exe = os.readlink(f"/proc/{child.pid}/exe")
        except OSError:
            now_exe = exe
        if now_exe != exe or time.monotonic() - last_maps > 1.0:
            read_maps(child.pid, maps)
            exe, last_maps = now_exe, time.monotonic()
            exe_text = [(lo, hi) for lo, (hi, _off, path) in maps.items() if path == exe]
        drain(ring, stacks, exe_text)
    drain(ring, stacks, exe_text)
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
