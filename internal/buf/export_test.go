package buf

// PatternByte exposes the byte-at-a-time pattern reference to the
// external pattern tests.
var PatternByte = patternByte
