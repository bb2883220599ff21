// Package meter reads the process's cost counters: CPU time (getrusage,
// user+sys), cumulative heap allocation and machine-wide steal time.
package meter

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Sample is one reading of the process's cost counters.
type Sample struct {
	Wall  time.Time
	CPU   time.Duration // user+sys CPU time of the whole process
	Alloc uint64        // cumulative heap bytes allocated (TotalAlloc)
	Steal time.Duration // machine-wide hypervisor steal time, if readable
}

// Read takes a sample. runtime.ReadMemStats stops the world briefly, so
// callers read only at window boundaries, never per operation.
func Read() Sample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return Sample{Wall: time.Now(), CPU: ProcessCPU(), Alloc: ms.TotalAlloc, Steal: steal()}
}

// Delta is the cost between two samples.
type Delta struct {
	Wall, CPU, Steal time.Duration
	Alloc            uint64
}

// Sub returns the cost from earlier to s.
func (s Sample) Sub(earlier Sample) Delta {
	return Delta{
		Wall:  s.Wall.Sub(earlier.Wall),
		CPU:   s.CPU - earlier.CPU,
		Steal: s.Steal - earlier.Steal,
		Alloc: s.Alloc - earlier.Alloc,
	}
}

// ProcessCPU returns the process's user+sys CPU time (getrusage).
func ProcessCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTicks is USER_HZ, the unit of /proc/stat; 100 on every Linux
// architecture Go supports.
const clockTicks = 100

// steal reads the machine-wide steal time from the aggregate "cpu" line
// of /proc/stat (read only). It returns 0 where the file is missing.
func steal() time.Duration {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		ticks, err := strconv.ParseUint(fields[8], 10, 64)
		if err != nil {
			return 0
		}
		return time.Duration(ticks) * time.Second / clockTicks
	}
	return 0
}
