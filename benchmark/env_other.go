//go:build !linux

package main

func hostInfo(string) (kernel, fsName string) { return "unknown", "unknown" }

func cpuTicks() (total, stolen uint64) { return 0, 0 }
