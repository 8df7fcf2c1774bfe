#pragma once
// Internal pieces of the streaming GFA reader (gfa_stream.cpp): its
// window sizing and a windowed entry point for tests, the tokenizers of
// CRLF and trailing-whitespace tolerant lines, GFA 1.0 `P` segment lists
// and GFA 1.1 `W` walk strings, and the segment-name table. Step callbacks
// return per-step errors as strings (empty = ok) so the reader can attach
// its own line numbers.
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/gfa_stream.hpp"

namespace pgl::graph::gfa_detail {

/// Size of one read from the input, so a window costs one block of memory
/// whatever its size. 64 KiB reads as fast as 1 MiB on a 27 MB GFA, while
/// 1 MiB blocks raised a serving daemon's peak RSS by ~2 MB: each worker's
/// malloc arena keeps the touched pages of its last block.
inline constexpr std::size_t kLineBlockBytes = std::size_t{1} << 16;

/// The smallest byte window worth a thread of its own: ~5 ms of parsing on
/// one core. On an idle 4-core host two windows already beat one at 190 KB
/// (1.3 -> 0.9 ms, best of 61), but a woken thread can wait milliseconds
/// for a CPU on a loaded host, such as a daemon whose workers are laying
/// graphs out, so a window must carry several milliseconds of work. A
/// 27 MB whole-genome GFA still gets one window per CPU up to 26.
inline constexpr std::uint64_t kMinWindowBytes = std::uint64_t{1} << 20;

/// How many windows ingest_gfa_file cuts a file of `bytes` bytes into: one
/// per CPU this thread may run on, but none smaller than kMinWindowBytes,
/// and at least one.
std::uint32_t window_count(std::uint64_t bytes);

/// ingest_gfa_file with exactly `windows` (>= 1) windows instead of
/// window_count's choice. Every window count yields the same LeanIngest,
/// or the same first error.
LeanIngest ingest_gfa_file(const std::string& path, std::uint32_t windows);

/// ingest_gfa_text with exactly `windows` (>= 1) windows.
LeanIngest ingest_gfa_text(std::string_view text, std::uint32_t windows);

/// Segment-name -> dense-id table. Open addressing
/// with linear probing over power-of-two slots kept at most half full;
/// each slot holds a 32-bit hash tag and an id, and the names themselves
/// sit back to back in one byte arena. Ids are assigned in insertion order
/// (S-record order), so the table is also the id -> name store, and
/// growing it rehashes from the stored tags without touching the names.
class NameTable {
public:
    static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

    /// Adds `name` under the next id (size() before the call). Returns
    /// false, adding nothing, when the name is already present.
    bool insert(std::string_view name) {
        if ((ends_.size() + 1) * 2 > slots_.size()) grow();
        const std::uint32_t tag = hash(name);
        Slot& slot = slots_[probe(name, tag)];
        if (slot.id != kNone) return false;
        slot = Slot{tag, size()};
        arena_.append(name);
        ends_.push_back(arena_.size());
        return true;
    }

    /// Sizes the table for `names` names of `bytes` bytes in total, so
    /// inserting them never rehashes.
    void reserve(std::uint32_t names, std::uint64_t bytes) {
        std::size_t slots = slots_.empty() ? 16 : slots_.size();
        while (slots < 2 * (static_cast<std::size_t>(names) + 1)) slots *= 2;
        if (slots > slots_.size()) rehash(slots);
        arena_.reserve(bytes);
        ends_.reserve(names);
    }

    /// The id of `name`, whose hash is `tag`, or kNone.
    std::uint32_t find(std::string_view name, std::uint32_t tag) const {
        if (slots_.empty()) return kNone;
        return slots_[probe(name, tag)].id;
    }
    std::uint32_t find(std::string_view name) const { return find(name, hash(name)); }

    /// Starts loading the home slot of a name whose hash is `tag`. Callers
    /// prefetch a batch of names before finding them, so the batch's cache
    /// misses overlap instead of serializing one lookup at a time.
    void prefetch(std::uint32_t tag) const noexcept {
        if (!slots_.empty()) __builtin_prefetch(&slots_[tag & (slots_.size() - 1)]);
    }

    std::uint32_t size() const noexcept {
        return static_cast<std::uint32_t>(ends_.size());
    }

    std::string_view name(std::uint32_t id) const noexcept {
        const std::uint64_t begin = id == 0 ? 0 : ends_[id - 1];
        return std::string_view(arena_).substr(begin, ends_[id] - begin);
    }

    /// Every name, indexed by id.
    std::vector<std::string> names() const {
        std::vector<std::string> out;
        out.reserve(size());
        for (std::uint32_t id = 0; id < size(); ++id) out.emplace_back(name(id));
        return out;
    }

    /// 8-bytes-at-a-time multiply-xorshift hash (SplitMix64 finalizer
    /// constants). Only the low bits pick the home slot, so all 64 bits
    /// are folded before truncation.
    static std::uint32_t hash(std::string_view s) noexcept {
        std::uint64_t h = 0x9e3779b97f4a7c15ull ^ s.size();
        std::size_t i = 0;
        std::uint64_t w = 0;
        for (; i + 8 <= s.size(); i += 8) {
            std::memcpy(&w, s.data() + i, 8);
            h = (h ^ w) * 0xbf58476d1ce4e5b9ull;
            h ^= h >> 31;
        }
        w = 0;  // the 0-7 byte tail, assembled bytewise (no memcpy call)
        for (std::size_t k = s.size(); k > i; --k) {
            w = (w << 8) | static_cast<unsigned char>(s[k - 1]);
        }
        h = (h ^ w) * 0x94d049bb133111ebull;
        h ^= h >> 29;
        h *= 0xbf58476d1ce4e5b9ull;
        return static_cast<std::uint32_t>(h ^ (h >> 32));
    }

private:
    struct Slot {
        std::uint32_t tag = 0;
        std::uint32_t id = kNone;
    };

    /// The slot holding `name`, or the empty slot where it would go.
    std::size_t probe(std::string_view name, std::uint32_t tag) const {
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = tag & mask;; i = (i + 1) & mask) {
            const Slot& s = slots_[i];
            if (s.id == kNone || (s.tag == tag && same(this->name(s.id), name))) return i;
        }
    }

    /// Names are short; an inline byte loop beats a memcmp call here.
    static bool same(std::string_view a, std::string_view b) noexcept {
        if (a.size() != b.size()) return false;
        for (std::size_t k = 0; k < a.size(); ++k) {
            if (a[k] != b[k]) return false;
        }
        return true;
    }

    void grow() { rehash(slots_.empty() ? 16 : 2 * slots_.size()); }

    void rehash(std::size_t slots) {
        const std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(slots));
        const std::size_t mask = slots_.size() - 1;
        for (const Slot& s : old) {
            if (s.id == kNone) continue;
            std::size_t i = s.tag & mask;
            while (slots_[i].id != kNone) i = (i + 1) & mask;
            slots_[i] = s;
        }
    }

    std::vector<Slot> slots_;
    std::string arena_;
    std::vector<std::uint64_t> ends_;  ///< arena end offset of each id's name
};

/// Strips the trailing '\r' of a CRLF line ending plus any trailing spaces
/// or tabs, so Windows-edited GFAs tokenize identically to Unix ones.
inline std::string_view chomp(std::string_view line) {
    std::size_t n = line.size();
    while (n > 0 && (line[n - 1] == '\r' || line[n - 1] == ' ' || line[n - 1] == '\t')) {
        --n;
    }
    return line.substr(0, n);
}

/// Splits `line` at tabs into `fields` (cleared first; callers reuse one
/// vector so tokenizing a line allocates nothing).
inline void split_tabs(std::string_view line, std::vector<std::string_view>& fields) {
    fields.clear();
    std::size_t start = 0;
    for (;;) {
        const std::size_t tab = line.find('\t', start);
        if (tab == std::string_view::npos) {
            fields.push_back(line.substr(start));
            return;
        }
        fields.push_back(line.substr(start, tab - start));
        start = tab + 1;
    }
}

/// Walks a GFA 1.0 `P` segment list ("s1+,s2-,..."), invoking
/// `fn(name, is_reverse)` per step. `fn` returns an error string (empty =
/// ok); the first error aborts the scan and is returned. Returns a
/// description for malformed tokens, empty on success.
template <typename Fn>
std::string for_each_p_step(std::string_view steps, Fn&& fn) {
    std::size_t start = 0;
    while (start < steps.size()) {
        std::size_t comma = steps.find(',', start);
        if (comma == std::string_view::npos) comma = steps.size();
        const std::string_view tok = steps.substr(start, comma - start);
        if (tok.size() < 2) return "bad path step";
        const char orient = tok.back();
        if (orient != '+' && orient != '-') return "bad step orientation";
        if (std::string err = fn(tok.substr(0, tok.size() - 1), orient == '-');
            !err.empty()) {
            return err;
        }
        start = comma + 1;
    }
    return {};
}

/// Walks a GFA 1.1 `W` walk string (">s1<s2>s3..."), invoking
/// `fn(name, is_reverse)` per step ('<' = reverse). Same error contract as
/// for_each_p_step. A walk of "*" is treated as empty (no steps, success) —
/// callers decide whether an empty walk is an error.
template <typename Fn>
std::string for_each_walk_step(std::string_view walk, Fn&& fn) {
    if (walk == "*") return {};
    std::size_t i = 0;
    while (i < walk.size()) {
        const char orient = walk[i];
        if (orient != '>' && orient != '<') return "bad walk step (expected > or <)";
        ++i;
        std::size_t end = i;
        while (end < walk.size() && walk[end] != '>' && walk[end] != '<') ++end;
        if (end == i) return "empty segment name in walk";
        if (std::string err = fn(walk.substr(i, end - i), orient == '<');
            !err.empty()) {
            return err;
        }
        i = end;
    }
    return {};
}

/// Synthesizes the path name of a W record ("sample#hap#seqid[:start-end]"),
/// the PanSN-style convention odgi/vg use when importing walks as paths.
inline std::string walk_path_name(std::string_view sample, std::string_view hap,
                                  std::string_view seq_id, std::string_view start,
                                  std::string_view end) {
    std::string name;
    name.reserve(sample.size() + hap.size() + seq_id.size() + start.size() +
                 end.size() + 4);
    name.append(sample).append("#").append(hap).append("#").append(seq_id);
    if (start != "*" && end != "*") {
        name.append(":").append(start).append("-").append(end);
    }
    return name;
}

/// Parses the LN:i: length tag of an S record whose sequence is "*" (real
/// pipelines emit sequence-free GFAs this way). Returns true and sets `len`
/// when the field is a well-formed LN tag.
inline bool parse_ln_tag(std::string_view field, std::uint32_t& len) {
    constexpr std::string_view kPrefix = "LN:i:";
    if (field.size() <= kPrefix.size() || field.substr(0, kPrefix.size()) != kPrefix) {
        return false;
    }
    std::uint64_t v = 0;
    for (const char c : field.substr(kPrefix.size())) {
        if (c < '0' || c > '9') return false;
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
        if (v > 0xFFFFFFFFull) return false;
    }
    len = static_cast<std::uint32_t>(v);
    return true;
}

}  // namespace pgl::graph::gfa_detail
