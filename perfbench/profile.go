package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile captures a runtime/pprof CPU profile in memory and aggregates
// its flat samples (the leaf frame of each sample) by package bucket.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends profiling and returns each bucket's share of flat samples and
// the total sample count.
func (p *cpuProfile) stop() (map[string]float64, int64, error) {
	pprof.StopCPUProfile()
	leaves, err := decodeLeaves(p.buf.Bytes())
	if err != nil {
		return nil, 0, err
	}
	shares := map[string]float64{}
	var total int64
	for fn, n := range leaves {
		shares[bucketOf(fn)] += float64(n)
		total += n
	}
	for b := range shares {
		shares[b] /= float64(total)
	}
	return shares, total, nil
}

// bucketOf maps a fully qualified function name to the layer it belongs to.
func bucketOf(fn string) string {
	pkg := fn
	if i := strings.IndexByte(pkg, '['); i >= 0 {
		pkg = pkg[:i] // generic instantiation: type arguments hold paths too
	}
	// The package path ends at the first '.' after the last '/'.
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case pkg == "anykey/internal/server" || pkg == "anykey/internal/metrics":
		return "server"
	case pkg == "anykey/internal/trace":
		return "trace"
	case pkg == "anykey/internal/cluster/fleet":
		return "fleet"
	case pkg == "anykey/internal/cluster" || pkg == "anykey":
		return "cluster"
	case pkg == "anykey/internal/txn":
		return "txn"
	case pkg == "anykey/internal/host" || pkg == "anykey/internal/sim":
		return "host"
	case pkg == "anykey/internal/core" || pkg == "anykey/internal/pink" || pkg == "anykey/internal/device" ||
		pkg == "anykey/internal/ftl" || pkg == "anykey/internal/dram" || pkg == "anykey/internal/cache" ||
		pkg == "anykey/internal/stats":
		return "core"
	case pkg == "anykey/internal/nand" || pkg == "anykey/internal/payload":
		return "nand"
	case pkg == "anykey/internal/memtable":
		return "memtable"
	case pkg == "anykey/internal/kv":
		return "kv"
	case pkg == "anykey/internal/workload" || pkg == "anykey/internal/zipfian" || pkg == "main":
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime") ||
		pkg == "sync" || pkg == "sync/atomic" || pkg == "internal/sync":
		return "runtime"
	case pkg == "net" || pkg == "internal/poll" || pkg == "syscall" || pkg == "bufio" ||
		strings.HasPrefix(pkg, "vendor/golang.org/x/net"):
		return "net"
	}
	return "other"
}

// decodeLeaves parses a gzipped profile.proto and returns flat sample
// counts by leaf function name. It reads only the fields it needs:
// Profile.sample(2), .location(4), .function(5), .string_table(6).
func decodeLeaves(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		leaf  uint64
		count int64
	}
	var (
		samples []sample
		locFn   = map[uint64]uint64{} // location id → innermost function id
		fnName  = map[uint64]int64{}  // function id → string index
		strs    []string
	)
	err = eachField(raw, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			first := true
			gotValue := false
			err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					return eachVarint(wt, v, b, func(x uint64) {
						if first {
							s.leaf, first = x, false
						}
					})
				case 2:
					return eachVarint(wt, v, b, func(x uint64) {
						if !gotValue {
							s.count, gotValue = int64(x), true
						}
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4:
			var id, fn uint64
			gotLine := false
			err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					if gotLine {
						return nil
					}
					gotLine = true
					return eachField(b, func(num, wt int, v uint64, b []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFn[id] = fn
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range samples {
		name := "?"
		if idx, ok := fnName[locFn[s.leaf]]; ok && idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		out[name] += s.count
	}
	return out, nil
}

var errTruncated = errors.New("perfbench: truncated profile")

// eachField walks a protobuf message, calling fn with each field's number,
// wire type, varint value (wire type 0) or payload (wire type 2).
func eachField(b []byte, fn func(num, wt int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wt {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return errTruncated
		}
		if err := fn(num, wt, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field's values in either encoding.
func eachVarint(wt int, v uint64, b []byte, fn func(uint64)) error {
	if wt == 0 {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
