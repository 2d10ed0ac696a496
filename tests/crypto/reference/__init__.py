"""Pure-Python AES and block modes, kept as the oracle for the native path."""
