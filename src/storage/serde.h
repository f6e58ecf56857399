#ifndef DYNOPT_STORAGE_SERDE_H_
#define DYNOPT_STORAGE_SERDE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/column_batch.h"

namespace dynopt {

/// Batch files: the on-disk form of materialized intermediates (the
/// paper's system stores each re-optimization point's output "in a
/// temporary file") and of grace-join spill partitions. A file holds whole
/// column batches: the magic "DRB4", a fixed64 BatchFileChecksum of the
/// payload (DRB3 had the same layout under byte-serial HashBytes), then
/// the payload — a varint batch count and per batch a varint
/// row count, a varint column count, per column a kind byte, a validity
/// flag byte (plus one validity byte per row when set) and the typed
/// payload (8 bytes per int64 or double row, 1 per bool row, a varint
/// length and the bytes per non-NULL string row), and finally 8 bytes of
/// row size per row. Arrays are copied in host byte order: only the
/// process that wrote a file reads it, and it removes the file after.

/// The batch-file checksum of `len` payload bytes: each 8-byte word in host
/// byte order, then the 0-7 tail bytes as one zero-padded word, folded by
/// one bijective step per word into a state seeded from `len`, finalized
/// by Mix64. A flipped byte changes one word and so the checksum.
uint64_t BatchFileChecksum(const void* data, size_t len);

/// Writes `batches` to `path`, overwriting. A failed open or short write
/// is kExecutionError.
Status WriteBatchesFile(const std::string& path,
                        const std::vector<ColumnBatch>& batches);

/// Reads a file written by WriteBatchesFile: the same batches, with the
/// same column kinds, validity, values and row sizes; each string column
/// gets a fresh dictionary per batch and code 0 on NULL rows. kNotFound
/// when the file is missing; kDataCorruption when the magic or checksum
/// does not match or the payload does not parse (a count or length past
/// the end, an unknown kind, trailing bytes) — any single flipped byte is
/// detected.
Result<std::vector<ColumnBatch>> ReadBatchesFile(const std::string& path);

/// Flips one bit of the byte at `offset % file size` in `path` — the fault
/// injector's physical corruption primitive (and available to tests).
Status CorruptByteInFile(const std::string& path, uint64_t offset);

/// Deletes every regular file directly under `dir` whose name starts with
/// `prefix`; returns how many were removed. A missing or unreadable
/// directory removes nothing. The spill janitor: recovery sweeps a query's
/// spill and temp files (QueryContext::SpillFilePrefix) with this after
/// cancellation or terminal failure, and tests assert zero leaks with the
/// counter below.
int RemoveFilesWithPrefix(const std::string& dir, const std::string& prefix);

/// Counts regular files directly under `dir` whose name starts with
/// `prefix` (0 for a missing directory).
int CountFilesWithPrefix(const std::string& dir, const std::string& prefix);

}  // namespace dynopt

#endif  // DYNOPT_STORAGE_SERDE_H_
