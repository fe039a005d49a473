package opencl

import (
	"fmt"
	"strings"
	"time"
)

// DeviceInfo is the clGetDeviceInfo view of a simulated device: the
// property set the paper's implementation queries to size work-groups and
// pick memory strategies (§IV-B).
type DeviceInfo struct {
	Name               string
	Vendor             string
	Type               string // CL_DEVICE_TYPE_*
	MaxComputeUnits    int
	MaxWorkGroupSize   int
	GlobalMemBytes     int64
	GlobalMemCacheSize int64
	LocalMemBytes      int64 // on-chip local memory (zero for CPUs, §IV-B)
	HostUnifiedMemory  bool
	MaxClockMHz        int
	ProfilingTimerRes  time.Duration
}

// Info returns the device's OpenCL property set.
func (d *ClDevice) Info() DeviceInfo {
	p := d.Sim.Profile()
	info := DeviceInfo{
		Name:               p.Name,
		MaxWorkGroupSize:   p.WorkGroupSize,
		GlobalMemCacheSize: p.CacheBytes,
		HostUnifiedMemory:  d.UnifiedMemory(),
		ProfilingTimerRes:  time.Nanosecond,
	}
	switch d.Kind().String() {
	case "cpu":
		info.Type = "CL_DEVICE_TYPE_CPU"
		info.Vendor = "Intel(R) Corporation"
		info.MaxComputeUnits = p.ParallelWidth / 8 // threads, not lanes
		info.GlobalMemBytes = 32 << 30             // host DRAM (§III-A)
		info.LocalMemBytes = 0                     // mapped to global (§IV-B)
		info.MaxClockMHz = 3700
	case "igpu":
		info.Type = "CL_DEVICE_TYPE_GPU"
		info.Vendor = "Intel(R) Corporation"
		info.MaxComputeUnits = 24 // execution units
		info.GlobalMemBytes = 32 << 30
		info.LocalMemBytes = 64 << 10
		info.MaxClockMHz = 1200
	case "dgpu":
		info.Type = "CL_DEVICE_TYPE_GPU"
		info.Vendor = "NVIDIA Corporation"
		info.MaxComputeUnits = 28 // streaming multiprocessors
		info.GlobalMemBytes = 11 << 30
		info.LocalMemBytes = 48 << 10
		info.MaxClockMHz = 1923
	default:
		info.Type = "CL_DEVICE_TYPE_ACCELERATOR"
		info.Vendor = "bomw"
		info.MaxComputeUnits = p.ParallelWidth / 64
		if info.MaxComputeUnits < 1 {
			info.MaxComputeUnits = 1
		}
		info.GlobalMemBytes = 4 << 30
		info.LocalMemBytes = 32 << 10
		info.MaxClockMHz = 1000
	}
	return info
}

// String renders the info block the way clinfo would.
func (i DeviceInfo) String() string {
	var b strings.Builder
	row := func(k string, v interface{}) { fmt.Fprintf(&b, "  %-28s %v\n", k, v) }
	fmt.Fprintf(&b, "Device %q\n", i.Name)
	row("CL_DEVICE_TYPE", i.Type)
	row("CL_DEVICE_VENDOR", i.Vendor)
	row("CL_DEVICE_MAX_COMPUTE_UNITS", i.MaxComputeUnits)
	row("CL_DEVICE_MAX_WORK_GROUP_SIZE", i.MaxWorkGroupSize)
	row("CL_DEVICE_GLOBAL_MEM_SIZE", i.GlobalMemBytes)
	row("CL_DEVICE_GLOBAL_MEM_CACHE_SIZE", i.GlobalMemCacheSize)
	row("CL_DEVICE_LOCAL_MEM_SIZE", i.LocalMemBytes)
	row("CL_DEVICE_HOST_UNIFIED_MEMORY", i.HostUnifiedMemory)
	row("CL_DEVICE_MAX_CLOCK_FREQUENCY", fmt.Sprintf("%d MHz", i.MaxClockMHz))
	return b.String()
}
