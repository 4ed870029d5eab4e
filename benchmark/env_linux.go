//go:build linux

package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// cpuTicks reads the first line of /proc/stat: all CPU time the guest has
// accounted so far, and the part of it the hypervisor gave to someone else.
// A run during which that part is large measured the neighbours.
func cpuTicks() (total, stolen uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:9] { // user nice system idle iowait irq softirq steal
		n, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			stolen = n
		}
	}
	return total, stolen
}

// hostInfo names the kernel and the filesystem under dir: fsync cost is the
// filesystem's, so a WAL number without it cannot be compared across hosts.
func hostInfo(dir string) (kernel, fsName string) {
	kernel, fsName = "unknown", "unknown"
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		b := make([]byte, 0, len(u.Release))
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		kernel = string(b)
	}
	var st syscall.Statfs_t
	if syscall.Statfs(dir, &st) == nil {
		names := map[int64]string{
			0xEF53: "ext2/3/4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
			0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse", 0x01021997: "9p",
		}
		if n, ok := names[int64(st.Type)]; ok {
			fsName = n
		} else {
			fsName = fmt.Sprintf("type 0x%X", st.Type)
		}
	}
	return kernel, fsName
}
