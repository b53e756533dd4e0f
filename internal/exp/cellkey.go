package exp

// cellkey.go canonicalizes one experiment cell — a fully resolved Config,
// whose Seed already encodes the trial index (trialSeed) — into a stable
// content hash. The serving layer (internal/serve) keys its completed-cell
// cache and its in-flight deduplication on this hash, so "a million users
// asking for Figure 5" collapse onto one simulation per cell: every run is
// a pure function of its Config, which makes the hash a sound cache key.
//
// The hash is computed over a canonical struct view with a fixed field
// order, not over caller-provided JSON, so it is invariant under JSON
// field reordering in request bodies by construction: two spec documents
// that resolve to the same Config hash identically no matter how their
// fields were ordered, and any change to a field that can influence the
// simulation (seed, shape, pattern, method, layout, disk model, tuning
// parameters, fault plan) changes the encoding and therefore the hash.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"time"

	"ddio/internal/core"
	"ddio/internal/fault"
	"ddio/internal/netsim"
	"ddio/internal/tcfs"
	"ddio/internal/twophase"
	"ddio/internal/workload"
)

// The substrate parameter structs are hashed through exact mirror types
// (same field names, types, and order) converted with a Go struct
// conversion, which the compiler only permits while the field sets match:
// adding a tuning knob to any of these structs fails this file's build
// until the hash is taught about it. Silently omitting a new knob from
// the key would serve stale cached results for runs the knob changes.
type (
	netKeyView struct {
		Width, Height int
		LinkBandwidth float64
		RouterDelay   time.Duration
		DMASetup      time.Duration
		HeaderBytes   int
		JitterMax     time.Duration
	}

	tcKeyView struct {
		RequestSendCPU time.Duration
		ReplyRecvCPU   time.Duration

		DispatchCPU    time.Duration
		ThreadCreate   time.Duration
		CacheAccessCPU time.Duration
		ReplySendCPU   time.Duration
		CopyPerByte    time.Duration

		BuffersPerDiskPerCP int
		PrefetchBlocks      int

		StridedRequests bool

		Retry fault.RetryPolicy
	}

	ddKeyView struct {
		RequestCPU       time.Duration
		IOPStartCPU      time.Duration
		PlanPerBlockCPU  time.Duration
		MemputCPU        time.Duration
		MemgetCPU        time.Duration
		MemgetRemoteCPU  time.Duration
		GatherSegmentCPU time.Duration

		BuffersPerDisk int
		Presort        bool
		GatherScatter  bool
		Retry          fault.RetryPolicy
	}

	tpKeyView struct {
		PermuteMsgCPU time.Duration
		SegmentCPU    time.Duration
		CopyPerByte   time.Duration
	}
)

// Compile-time lockstep between the mirrors and their sources.
var (
	_ = netKeyView(netsim.Config{})
	_ = tcKeyView(tcfs.Params{})
	_ = ddKeyView(core.Params{})
	_ = tpKeyView(twophase.Params{})
)

// seekProbeDistances samples the disk model's seek curve at one short,
// two mid, and one full-stroke distance (the HP 97560 breakpoint is 383
// cylinders), so seek-curve ablations that keep the rest of the Spec
// unchanged still produce distinct cell keys.
var seekProbeDistances = [4]int{1, 16, 384, 1961}

// diskKeyView is the hashable image of a disk.Spec: every numeric
// parameter plus sampled points of the (unhashable) seek function.
type diskKeyView struct {
	Name                string
	Cylinders           int
	Heads               int
	SectorsPerTrack     int
	SectorSize          int
	RPM                 float64
	HeadSwitch          time.Duration
	TrackSkew           int
	CylinderSkew        int
	ControllerOverhead  time.Duration
	CacheSegmentSectors int
	SeekProbes          [4]time.Duration
}

// cellKeyView is the canonical encoding of a resolved Config. Field order
// is fixed by the struct; encoding/json emits struct fields in declaration
// order, so the byte encoding — and the hash — is deterministic. Trace is
// deliberately absent: tracing is passive (the run is bit-identical with
// or without a recorder), and the serving layer never serves a traced run
// from cache anyway, because the recorder itself is the product.
type cellKeyView struct {
	Method     string
	Pattern    string
	NCP        int
	NIOP       int
	NDisks     int
	FileBytes  int64
	BlockSize  int
	RecordSize int
	Layout     int
	Seed       int64
	Verify     bool

	Disk         diskKeyView
	Net          netKeyView
	BusBandwidth float64
	BusOverhead  time.Duration
	BarrierCost  time.Duration

	TC tcKeyView
	DD ddKeyView
	TP tpKeyView

	// Faults is the plan verbatim (all fields are plain values). nil and
	// a zero plan hash differently even though they behave identically;
	// the split only costs a duplicate cache entry, never a wrong result.
	Faults *fault.Plan

	// Workload is the spec verbatim: every phase knob (pattern, request
	// count, record sizes, mix, arrival process, trace entries) feeds the
	// key, so two cells differing in any workload parameter never share a
	// cache slot. Same nil-vs-zero note as Faults.
	Workload *workload.Spec
}

// CellKey returns the canonical content hash of one resolved experiment
// cell: a hex SHA-256 over the Config's canonical encoding. Identical
// Configs — regardless of how their defining JSON was ordered — yield
// identical keys; any simulation-relevant difference (seed, trial, shape,
// method, pattern, layout, record size, disk model, substrate tuning,
// fault plan) yields a distinct encoding and therefore a distinct key.
func CellKey(cfg Config) string {
	sum := sha256.Sum256(cellKeyBytes(cfg))
	return hex.EncodeToString(sum[:])
}

// cellKeyBytes returns the canonical encoding CellKey hashes; tests pin
// its invariance and sensitivity properties directly on the bytes.
func cellKeyBytes(cfg Config) []byte {
	v := cellKeyView{
		Method:       cfg.Method.String(),
		Pattern:      cfg.Pattern,
		NCP:          cfg.NCP,
		NIOP:         cfg.NIOP,
		NDisks:       cfg.NDisks,
		FileBytes:    cfg.FileBytes,
		BlockSize:    cfg.BlockSize,
		RecordSize:   cfg.RecordSize,
		Layout:       int(cfg.Layout),
		Seed:         cfg.Seed,
		Verify:       cfg.Verify,
		Net:          netKeyView(cfg.Net),
		BusBandwidth: cfg.BusBandwidth,
		BusOverhead:  cfg.BusOverhead,
		BarrierCost:  cfg.BarrierCost,
		TC:           tcKeyView(cfg.TC),
		DD:           ddKeyView(cfg.DD),
		TP:           tpKeyView(cfg.TP),
		Faults:       cfg.Faults,
		Workload:     cfg.Workload,
	}
	if d := cfg.Disk; d != nil {
		v.Disk = diskKeyView{
			Name: d.Name, Cylinders: d.Cylinders, Heads: d.Heads,
			SectorsPerTrack: d.SectorsPerTrack, SectorSize: d.SectorSize,
			RPM: d.RPM, HeadSwitch: d.HeadSwitch,
			TrackSkew: d.TrackSkew, CylinderSkew: d.CylinderSkew,
			ControllerOverhead:  d.ControllerOverhead,
			CacheSegmentSectors: d.CacheSegmentSectors,
		}
		if d.Seek != nil {
			for i, dist := range seekProbeDistances {
				v.Disk.SeekProbes[i] = d.Seek(dist)
			}
		}
	}
	b, err := json.Marshal(v)
	if err != nil {
		// Unreachable: the view holds only plain data.
		panic("exp: cell key encoding failed: " + err.Error())
	}
	return b
}
