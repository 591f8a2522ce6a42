// Small string utilities shared across the code base.
//
// These mirror the handful of helpers the pipeline needs constantly: token
// splitting for annotation and config files, case-insensitive comparison for
// the case-sensitivity analyses, and numeric parsing that reports failure
// instead of silently truncating (SPEX itself must not use "unsafe APIs").
#ifndef SPEX_SUPPORT_STRINGS_H_
#define SPEX_SUPPORT_STRINGS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace spex {

std::string_view TrimWhitespace(std::string_view text);

std::vector<std::string> SplitString(std::string_view text, char delimiter);

// Splits on runs of whitespace; no empty fields are produced.
std::vector<std::string> SplitWhitespace(std::string_view text);

std::string JoinStrings(const std::vector<std::string>& parts, std::string_view separator);

std::string ToLowerCopy(std::string_view text);
std::string ToUpperCopy(std::string_view text);

bool EqualsIgnoreCase(std::string_view a, std::string_view b);
// Three-way strcmp-style comparison; returns -1, 0 or 1. The IgnoreCase
// variant lowercases on the fly — no temporary copies.
int CompareStrings(std::string_view a, std::string_view b);
int CompareStringsIgnoreCase(std::string_view a, std::string_view b);
bool StartsWith(std::string_view text, std::string_view prefix);
bool ContainsSubstringIgnoreCase(std::string_view haystack, std::string_view needle);

// Length of the well-formed multi-byte UTF-8 sequence at text[i] (Unicode
// Table 3-7: no overlongs, no surrogates, nothing past U+10FFFF), else 0.
size_t Utf8SequenceLength(std::string_view text, size_t i);

// Integer parsing with C semantics: after whitespace trimming, the text up
// to the first NUL must be a decimal (optionally signed) integer, without
// overflow of int64_t; else nullopt. Config values and MiniC's
// parse_int_strict stop at the NUL on purpose: a C target's strtol does too.
std::optional<int64_t> ParseInt64(std::string_view text);

// Floating-point parsing with the same C semantics.
std::optional<double> ParseDouble(std::string_view text);

// Replaces every occurrence of `from` with `to`.
std::string ReplaceAll(std::string text, std::string_view from, std::string_view to);

}  // namespace spex

#endif  // SPEX_SUPPORT_STRINGS_H_
