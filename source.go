package sramaging

import (
	"io"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/store"
)

// Re-exported measurement and source types. A Source is where an
// assessment's measurements come from; the three built-in implementations
// make offline archive replay and live (simulated) campaigns the same
// Assessment call, and external implementations of the Source interface
// plug into the same engine.
type (
	// Pattern is one SRAM power-up read-out: a packed bit vector with
	// Hamming-space primitives (Clone, Xor, HammingWeight, ...).
	Pattern = bitvec.Vector
	// Record is one archived measurement: a Pattern plus board, sequence
	// and wall-clock capture metadata (the rig's JSONL schema).
	Record = store.Record
	// Source supplies the monthly evaluation windows of an Assessment.
	Source = core.Source
	// Sink receives a window's measurements: device index plus Pattern.
	Sink = core.Sink
	// MonthLister is implemented by bounded sources (archive replay)
	// that know which month indices they can serve.
	MonthLister = core.MonthLister
	// WorkerSetter is implemented by sources with parallelisable
	// delivery; WithWorkers forwards the bound here.
	WorkerSetter = core.WorkerSetter
	// SimulatedSource samples simulated SRAM chips directly — the fast
	// campaign path — with resident chips, or with lazy ones rebuilt per
	// measuring worker slot (WithLazy). Both modes draw the same bits,
	// and its SetTap archives records like the rig's.
	SimulatedSource = core.SimSource
	// RigSource routes every window through the full measurement-rig
	// simulation (power switch, boot, I2C, record forwarding) and can
	// tap the record stream to an archive writer.
	RigSource = core.RigSource
	// ArchiveSource replays a recorded measurement archive.
	ArchiveSource = core.ArchiveSource
)

// NewPattern returns an all-zero pattern of the given bit width — the
// scratch space custom Metric accumulators build on.
func NewPattern(bits int) *Pattern { return bitvec.New(bits) }

// NewSimulatedSource builds a direct-sampling source: devices simulated
// chips of the profile, seeded with the campaign seed (the same
// per-device derivation the rig uses, so both sources produce
// bit-identical measurement streams).
func NewSimulatedSource(profile DeviceProfile, devices int, seed uint64) (*SimulatedSource, error) {
	return core.NewSimSource(profile, devices, seed)
}

// NewRigSource builds a full-fidelity source: the paper's two-layer
// measurement rig with devices boards (an even count) and the given I2C
// byte-corruption rate. Use (*RigSource).SetTap to archive the record
// stream (e.g. through a store JSONL writer) while the assessment runs.
func NewRigSource(profile DeviceProfile, devices int, seed uint64, i2cErrorRate float64) (*RigSource, error) {
	return core.NewRigSource(profile, devices, seed, i2cErrorRate)
}

// NewArchiveSource reads a measurement archive stream (as written by
// agingtest -archive, a tapped RigSource, or a real rig using the same
// schema) into a replay source. Both formats are accepted and detected
// by the leading bytes: a binary archive (v1 or v2) is replayed as is,
// and a JSON-lines stream is converted into an in-memory binary image
// first (see DESIGN.md §5 and §6 for the formats). The source implements
// MonthLister, so an Assessment without WithMonths evaluates exactly the
// months the archive holds complete windows for.
//
// This constructor holds the whole archive in memory; for files,
// OpenArchiveSource replays month windows straight from disk through
// the archive index instead.
func NewArchiveSource(r io.Reader) (*ArchiveSource, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	ir, err := store.OpenIndexedBytes(data)
	if err != nil {
		return nil, err
	}
	return core.NewArchiveSource(ir)
}

// OpenArchiveSource opens the binary measurement archive file at path
// for seek-based replay: an indexed (.bin v2) archive opens in O(1) via
// its trailer index and replays each month's windows directly from the
// file without ever materialising the archive in memory; a v1 archive is
// scanned once to build the same index. A JSONL file is refused with an
// error naming `evaluate -index`, which converts it in place once
// (UpgradeArchive). The caller must Close the returned source.
func OpenArchiveSource(path string) (*ArchiveSource, error) {
	return core.OpenArchiveSource(path)
}

// ArchiveInfo describes a measurement archive: format, whether a
// trailer index is present, and its record/board/month shape.
type ArchiveInfo = store.ArchiveInfo

// InspectArchive opens the archive at path just far enough to describe
// it — for an indexed archive only the footer is read. A JSONL archive
// is refused, as by OpenArchiveSource.
func InspectArchive(path string) (ArchiveInfo, error) {
	return store.InspectFile(path)
}

// UpgradeArchive rewrites the archive at path — JSONL or v1 binary — in
// the indexed binary format (v2): board-major records plus a trailer
// index mapping every (board, month) segment, so replays seek instead
// of scan. The rewrite streams from the mapped file (heap memory is
// O(index), not O(archive), wherever the platform has mmap), is
// atomic (temp file + rename) and idempotent — it reports false,
// touching nothing, when the archive already carries a valid index.
func UpgradeArchive(path string) (bool, error) {
	return store.UpgradeFile(path)
}

// RecordWriter is a streaming archive sink: Write one Record at a time,
// Flush when done. Install one behind a live source's record tap
// (simulated, rig or sharded SetTap) to archive a campaign as it runs.
type RecordWriter = store.RecordWriter

// NewJSONLRecordWriter returns a record writer in the JSON-lines schema —
// one self-describing object per line, greppable and jq-able, the format
// to reach for when humans will read the archive. JSONL is an export
// format: replay from a file needs UpgradeArchive first.
func NewJSONLRecordWriter(w io.Writer) RecordWriter { return store.NewJSONLWriter(w) }

// NewBinaryRecordWriter returns a record writer in the binary codec —
// a fixed header plus raw pattern words per record, roughly half the
// bytes and none of the hex/JSON churn, the format for large campaigns
// and machine-to-machine transport. The writer emits the indexed v2
// format: Flush appends a trailer index mapping every (board, month)
// segment, so replay tools seek to a month in O(1) instead of scanning
// the archive. NewArchiveSource detects either binary version by its
// leading magic.
func NewBinaryRecordWriter(w io.Writer) RecordWriter { return store.NewBinaryWriter(w) }

// NewRecordWriterForPath picks the archive format from the path's
// extension, like agingtest -archive does: `.bin` selects the binary
// codec, anything else JSON lines.
func NewRecordWriterForPath(path string, w io.Writer) RecordWriter {
	return store.NewWriterForPath(path, w)
}
